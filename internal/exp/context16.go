package exp

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/ctxtune"
	"repro/internal/nominal"
	"repro/internal/param"
	"repro/internal/report"
)

// Ablation A16 — contextual tuning on mixed bible+DNA traffic. The
// paper's context K = (K_A, K_S) says the right algorithm depends on
// the request, not just the machine: the matcher that wins on English
// text loses on DNA. A16 interleaves both request classes in one
// stream, each request tagged with a cheap feature (its alphabet size),
// and compares two tuners over the same recorded banks:
//
//   - the contextual engine, whose split tree must discover that the
//     feature separates two cost regimes, split the shared bucket, and
//     learn each class's own winner in its own selector replica;
//   - a single global tuner, whose one incumbent is necessarily wrong
//     for at least one class (the banks force different winners).
//
// The gate: the contextual engine's tail-window majority pick is the
// correct winner for BOTH halves, and its tail-window regret against
// the per-class oracle is strictly below the global control's.

// Feature vectors attached to each request class: the alphabet size of
// the haystack — 27 for English text, 4 for DNA — a workload descriptor
// the caller knows without measuring anything. The quantized bins of 27
// and 4 differ, which is all the partitioner needs.
var (
	bibleFeatures = ctxtune.Features{27}
	dnaFeatures   = ctxtune.Features{4}
)

// ContextualTuning is the A16 result.
type ContextualTuning struct {
	Iters int
	// Per-class bank winners (by bank minimum) — forced distinct by the
	// bank shaping.
	BibleWinner, DNAWinner string

	// Contextual leg.
	Contexts                   int // live selector replicas at the end
	CtxBibleArm, CtxDNAArm     string
	CtxBibleShare, CtxDNAShare float64 // tail share of each class's majority
	CtxRegret, CtxTailRegret   float64

	// Global control over the identical stream.
	GlobalArm                      string // overall tail majority
	GlobalRegret, GlobalTailRegret float64

	Err string

	// Replay is the seed and the two shaped class banks.
	Replay Replay
}

// Pass reports the A16 acceptance criteria: the bucket split happened,
// both halves converged on their own winner, and contextual routing
// beat the global compromise on tail-window regret.
func (c *ContextualTuning) Pass() bool {
	return c.Err == "" &&
		c.BibleWinner != c.DNAWinner &&
		c.Contexts >= 2 &&
		c.CtxBibleArm == c.BibleWinner &&
		c.CtxDNAArm == c.DNAWinner &&
		c.CtxTailRegret < c.GlobalTailRegret
}

// classBank replays one recorded bank per request class and tracks
// per-class tail selections and regret against each class's own oracle.
// Both legs drive it single-threaded in the same class order, so the
// two runs see identical measurement streams per (class, arm, visit).
type classBank struct {
	banks              [2][][]float64
	visits             [2][]int
	oracle             [2]float64
	tailSel            [2][]int
	tailFrom, n        int
	regret, tailRegret float64
}

func newClassBank(bible, dna [][]float64, tailFrom int) *classBank {
	b := &classBank{tailFrom: tailFrom}
	b.banks[0], b.banks[1] = bible, dna
	b.oracle[0], b.oracle[1] = bankFloor(bible, -1), bankFloor(dna, -1)
	for c := range b.visits {
		b.visits[c] = make([]int, len(bible))
		b.tailSel[c] = make([]int, len(bible))
	}
	return b
}

func (b *classBank) measure(class, algo int) float64 {
	b.n++
	samples := b.banks[class][algo]
	v := samples[b.visits[class][algo]%len(samples)]
	b.visits[class][algo]++
	b.regret += v - b.oracle[class]
	if b.n > b.tailFrom {
		b.tailSel[class][algo]++
		b.tailRegret += v - b.oracle[class]
	}
	return v
}

// tailMajority returns the most-selected arm in the tail window, for
// one class or (class < 0) across both.
func (b *classBank) tailMajority(class int) int {
	best, bestN := 0, -1
	for a := range b.tailSel[0] {
		n := 0
		for c := range b.tailSel {
			if class < 0 || c == class {
				n += b.tailSel[c][a]
			}
		}
		if n > bestN {
			best, bestN = a, n
		}
	}
	return best
}

// tailShare returns arm's fraction of one class's tail selections.
func (b *classBank) tailShare(class, arm int) float64 {
	total := 0
	for _, n := range b.tailSel[class] {
		total += n
	}
	if total == 0 {
		return 0
	}
	return float64(b.tailSel[class][arm]) / float64(total)
}

// RunContextualTuning executes the A16 experiment. iters <= 0 uses 800.
// The banks come from recordDriftBanks: real matcher timings on both
// corpora, shaped so the per-class winners differ and the DNA bank sits
// a driftLiftFactor above the bible bank — the cost-scale gap the split
// tree's lift gate keys on.
func RunContextualTuning(cfg Config, iters int) *ContextualTuning {
	cfg = cfg.sanitize()
	if iters <= 0 {
		iters = 800
	}
	tailFrom := iters * 3 / 4
	names, bible, dna, w1, w2 := recordDriftBanks(cfg)
	res := &ContextualTuning{
		Iters:       iters,
		BibleWinner: names[w1],
		DNAWinner:   names[w2],
		Replay:      Replay{Seed: cfg.Seed, Names: names, Banks: []NamedBank{{"bible", bible}, {"dna", dna}}},
	}
	fail := func(err error) *ContextualTuning {
		res.Err = err.Error()
		return res
	}
	// Windowed ε-greedy on both legs: each context disagrees with the
	// global fold it is warm-started from, so imported evidence must be
	// able to age out (the same reasoning as drift recovery).
	sel := func() nominal.Selector {
		return &nominal.EpsilonGreedy{Eps: 0.10, RecencyWindow: 25}
	}
	feats := []ctxtune.Features{bibleFeatures, dnaFeatures}

	// Contextual leg.
	eng, err := ctxtune.New(ctxtune.Config{
		Algos:       matcherAlgorithms(),
		Selector:    sel,
		Seed:        cfg.Seed,
		Partitioner: ctxtune.NewTree(1, 32, 1.5),
	})
	if err != nil {
		return fail(err)
	}
	cb := newClassBank(bible, dna, tailFrom)
	for i := 0; i < iters; i++ {
		class := i % 2
		trials, err := eng.LeaseNFor(feats[class], 1)
		if err != nil {
			return fail(err)
		}
		for _, tr := range trials {
			v := cb.measure(class, tr.Algo)
			if e := eng.CompleteN([]core.TrialResult{{ID: tr.ID, Value: v}})[0]; e != nil {
				return fail(e)
			}
		}
	}
	res.Contexts = eng.ContextCount()
	res.CtxBibleArm = names[cb.tailMajority(0)]
	res.CtxDNAArm = names[cb.tailMajority(1)]
	res.CtxBibleShare = cb.tailShare(0, cb.tailMajority(0))
	res.CtxDNAShare = cb.tailShare(1, cb.tailMajority(1))
	res.CtxRegret, res.CtxTailRegret = cb.regret, cb.tailRegret

	// Global control: the identical class-alternating stream through one
	// tuner that never sees the features.
	gb := newClassBank(bible, dna, tailFrom)
	tu, err := core.NewTuner(matcherAlgorithms(), sel(), nil, cfg.Seed)
	if err != nil {
		return fail(err)
	}
	n := 0
	tu.Run(iters, func(algo int, _ param.Config) float64 {
		class := n % 2
		n++
		return gb.measure(class, algo)
	})
	res.GlobalArm = names[gb.tailMajority(-1)]
	res.GlobalRegret, res.GlobalTailRegret = gb.regret, gb.tailRegret
	return res
}

// RenderFigureA16 writes the contextual-tuning summary table.
func (c *ContextualTuning) RenderFigureA16(w io.Writer) *report.Table {
	t := report.NewTable("Ablation A16: contextual tuning on mixed bible+DNA traffic",
		"property", "value")
	t.Addf("iterations (interleaved classes)", c.Iters)
	t.Addf("bible-class winner (bank)", c.BibleWinner)
	t.Addf("dna-class winner (bank)", c.DNAWinner)
	t.Addf("contexts discovered", c.Contexts)
	t.Addf("contextual tail pick: bible class",
		fmt.Sprintf("%s (share %.2f)", c.CtxBibleArm, c.CtxBibleShare))
	t.Addf("contextual tail pick: dna class",
		fmt.Sprintf("%s (share %.2f)", c.CtxDNAArm, c.CtxDNAShare))
	t.Addf("global control tail pick", c.GlobalArm)
	t.Addf("regret vs per-class oracle (contextual vs global)",
		fmt.Sprintf("%.1f vs %.1f ms", c.CtxRegret, c.GlobalRegret))
	t.Addf("tail-window regret (contextual vs global)",
		fmt.Sprintf("%.1f vs %.1f ms", c.CtxTailRegret, c.GlobalTailRegret))
	if c.Err != "" {
		t.Addf("error", c.Err)
	}
	t.Addf("passes", c.Pass())
	if w != nil {
		t.Render(w)
	}
	return t
}
