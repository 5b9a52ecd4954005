package exp

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/nominal"
	"repro/internal/param"
	"repro/internal/report"
)

// Ablation A11 — crash/resume. The online tuner is meant to live inside a
// long-running application, which means it inherits the application's
// failure model: the process can be killed at any instant. This experiment
// runs the string matching case study under core.WithCheckpoint, hard-kills
// the tuner at several random iterations (the tuner object is discarded
// with a proposal in flight, exactly what SIGKILL leaves behind), resumes
// each time by building the tuner again over the same directory, and requires that the stitched-together run
// reach the same winner as an uninterrupted run with the same seed, losing
// at most the single in-flight iteration per crash. A final check corrupts
// the newest snapshot line on disk and resumes once more: recovery must
// fall back to the previous snapshot and replay the records after it
// without error.
//
// As in A10, both runs replay pre-recorded per-matcher sample banks so the
// winner comparison is exact: the k-th visit of an algorithm costs the
// same in the reference and the crashed run, so the winners can only
// differ if checkpoint/restore perturbed the decision sequence — which is
// precisely the question A11 asks. The resumed process seeds its bank
// cursors from the tuner's own per-arm visit counts, the same way a real
// application's measurement context is reconstructed from application
// state rather than from tuner memory.

// CheckpointCrash is the A11 result.
type CheckpointCrash struct {
	Labels  []string
	Iters   int
	Every   int
	Crashes int
	// KillPoints are the iterations at which the tuner was discarded
	// mid-proposal.
	KillPoints []int
	// ReferenceWinner and ResumedWinner are the Best() algorithms of the
	// uninterrupted and the crashed-and-resumed runs.
	ReferenceWinner, ResumedWinner string
	WinnersAgree                   bool
	ReferenceBest, ResumedBest     float64
	// MaxLossPerCrash is the worst per-crash iteration loss, counting the
	// in-flight proposal: (iterations started before the kill) −
	// (iterations recovered by the resume). The journal makes this 1.
	MaxLossPerCrash int
	// ReplayedIterations counts journal records replayed across all
	// resumes (iterations recovered beyond the loaded snapshots).
	ReplayedIterations int
	// FallbackOK reports whether resuming after the newest snapshot was
	// corrupted succeeded, recovered the full run, and agreed on the
	// winner.
	FallbackOK     bool
	FallbackWinner string
	// Replay is the seed and the recorded bank.
	Replay Replay
}

// replayMeasureFrom is replayMeasure with pre-seeded bank cursors: a
// resumed process must continue the replay where the killed one left off,
// and the tuner's restored per-arm visit counts are exactly that position
// (the in-flight proposal was never measured). A nil visits starts at
// zero.
func replayMeasureFrom(bank [][]float64, visits []int) core.Measure {
	var mu sync.Mutex
	v := make([]int, len(bank))
	copy(v, visits)
	return func(algo int, _ param.Config) float64 {
		mu.Lock()
		defer mu.Unlock()
		x := bank[algo][v[algo]%len(bank[algo])]
		v[algo]++
		return x
	}
}

// RunCheckpointCrash executes the A11 experiment. iters ≤ 0 uses 2000,
// crashes ≤ 0 uses 10 hard kills, every ≤ 0 snapshots every 50
// iterations. The checkpoint directory is a temp dir, removed afterwards.
func RunCheckpointCrash(cfg Config, iters, crashes, every int) (*CheckpointCrash, error) {
	cfg = cfg.sanitize()
	if iters <= 0 {
		iters = 2000
	}
	if crashes <= 0 {
		crashes = 10
	}
	if crashes > iters/2 {
		crashes = iters / 2
	}
	if every <= 0 {
		every = 50
	}
	names, bank := recordBank(cfg)

	algos := matcherAlgorithms()
	newSelector := func() nominal.Selector { return nominal.NewEpsilonGreedy(0.20) }

	// Reference: one uninterrupted run, no persistence.
	ref, err := core.NewTuner(algos, newSelector(), nil, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ref.Run(iters, replayMeasureFrom(bank, nil))
	refBest, _, refVal := ref.Best()

	dir, err := os.MkdirTemp("", "atune-a11-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Distinct random kill points, strictly inside the run.
	rng := rand.New(rand.NewSource(cfg.Seed + 211))
	pts := make(map[int]bool, crashes)
	for len(pts) < crashes {
		pts[1+rng.Intn(iters-1)] = true
	}
	points := make([]int, 0, len(pts))
	for p := range pts {
		points = append(points, p)
	}
	sort.Ints(points)

	res := &CheckpointCrash{
		Labels: names, Iters: iters, Every: every, Crashes: crashes,
		KillPoints:      points,
		ReferenceWinner: names[refBest],
		ReferenceBest:   refVal,
		Replay:          Replay{Seed: cfg.Seed, Names: names, Banks: []NamedBank{{"bible", bank}}},
	}

	// Starting and restarting are the same call: over a directory that
	// holds a checkpoint, NewTuner resumes it.
	build := func() (*core.Tuner, error) {
		return core.NewTuner(algos, newSelector(), nil, cfg.Seed, core.WithCheckpoint(dir, every))
	}
	t, err := build()
	if err != nil {
		return nil, err
	}
	for _, p := range points {
		m := replayMeasureFrom(bank, t.Counts())
		for t.Iterations() < p {
			t.Step(m)
		}
		// Hard kill: a proposal goes in flight and the process dies before
		// observing it. Discarding the tuner is all a SIGKILL leaves.
		t.Next()
		t = nil

		st, err := checkpoint.Load(dir)
		if err != nil {
			return nil, fmt.Errorf("exp: read checkpoint after kill at iteration %d: %w", p, err)
		}
		t, err = build()
		if err != nil {
			return nil, fmt.Errorf("exp: resume after kill at iteration %d: %w", p, err)
		}
		if loss := (p + 1) - t.Iterations(); loss > res.MaxLossPerCrash {
			res.MaxLossPerCrash = loss
		}
		res.ReplayedIterations += t.Iterations() - st.Iter
	}
	m := replayMeasureFrom(bank, t.Counts())
	for t.Iterations() < iters {
		t.Step(m)
	}
	best, _, bestVal := t.Best()
	res.ResumedWinner = names[best]
	res.ResumedBest = bestVal
	res.WinnersAgree = best == refBest
	t = nil

	// Fallback: flip a byte in the newest snapshot line; the resume must
	// recover from the previous snapshot plus the records after it.
	segs := checkpoint.Segments(dir)
	path := checkpoint.SegPath(dir, segs[len(segs)-1])
	info, err := checkpoint.InspectSegment(path)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	newest := info.Snapshots[len(info.Snapshots)-1]
	data[newest.Offset+int64(newest.Len/2)] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	fb, err := build()
	if err != nil {
		return nil, fmt.Errorf("exp: resume with corrupt newest snapshot: %w", err)
	}
	fbBest, _, _ := fb.Best()
	res.FallbackWinner = names[fbBest]
	res.FallbackOK = fb.Iterations() == iters && fbBest == best
	return res, nil
}

// RenderFigureA11 writes the crash/resume summary table.
func (c *CheckpointCrash) RenderFigureA11(w io.Writer) *report.Table {
	t := report.NewTable("Ablation A11: crash/resume on the string matching case study",
		"property", "value")
	t.Addf("iterations", c.Iters)
	t.Addf("snapshot cadence", c.Every)
	t.Addf("hard kills", c.Crashes)
	t.Addf("kill points", fmt.Sprint(c.KillPoints))
	t.Addf("reference winner", c.ReferenceWinner)
	t.Addf("resumed winner", c.ResumedWinner)
	t.Addf("winners agree", c.WinnersAgree)
	t.Addf("max iterations lost per crash", c.MaxLossPerCrash)
	t.Addf("journal iterations replayed", c.ReplayedIterations)
	t.Addf("corrupt-snapshot fallback ok", c.FallbackOK)
	t.Addf("fallback winner", c.FallbackWinner)
	if w != nil {
		t.Render(w)
	}
	return t
}
