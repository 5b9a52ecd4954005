package core

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/checkpoint/crashtest"
	"repro/internal/guard"
	"repro/internal/nominal"
	"repro/internal/param"
)

// runRef runs an uncheckpointed tuner to iters and returns it.
func runRef(t *testing.T, seed int64, iters int) *Tuner {
	t.Helper()
	algos, m := syntheticAlgos()
	tu := mustNew(t, algos, nominal.NewEpsilonGreedy(0.2), DefaultFactory, seed)
	tu.Run(iters, m)
	return tu
}

// resumeSynthetic builds a checkpointed tuner over dir with the
// syntheticAlgos setup, resuming whatever dir holds.
func resumeSynthetic(t *testing.T, dir string, every int, seed int64) (*Tuner, error) {
	t.Helper()
	algos, _ := syntheticAlgos()
	return NewTuner(algos, nominal.NewEpsilonGreedy(0.2), DefaultFactory, seed, WithCheckpoint(dir, every))
}

// TestCheckpointResumeMatchesUninterrupted is the core acceptance
// property: kill the tuner mid-iteration at several points, resume each
// time, and the stitched run must match an uninterrupted run decision for
// decision.
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	const iters, seed, every = 300, 3, 20
	ref := runRef(t, seed, iters)
	refBest, refCfg, refVal := ref.Best()

	dir := t.TempDir()
	algos, m := syntheticAlgos()
	tu := mustNew(t, algos, nominal.NewEpsilonGreedy(0.2), DefaultFactory, seed,
		WithCheckpoint(dir, every))
	for _, kill := range []int{1, 17, 20, 59, 155, 156, 299} {
		for tu.Iterations() < kill {
			tu.Step(m)
		}
		if err := tu.CheckpointErr(); err != nil {
			t.Fatalf("checkpointing degraded before kill at %d: %v", kill, err)
		}
		tu.Next() // in-flight proposal dies with the process
		tu = nil

		var err error
		tu, err = resumeSynthetic(t, dir, every, seed)
		if err != nil {
			t.Fatalf("resume after kill at %d: %v", kill, err)
		}
		if got := tu.Iterations(); got != kill {
			t.Fatalf("resume after kill at %d recovered %d iterations", kill, got)
		}
	}
	for tu.Iterations() < iters {
		tu.Step(m)
	}
	best, cfg, val := tu.Best()
	if best != refBest || !cfg.Equal(refCfg) || val != refVal {
		t.Errorf("resumed run diverged: best %d %v %g, want %d %v %g",
			best, cfg, val, refBest, refCfg, refVal)
	}
	if c, rc := tu.Counts(), ref.Counts(); len(c) == len(rc) {
		for i := range c {
			if c[i] != rc[i] {
				t.Errorf("algorithm %d selected %d times, reference %d", i, c[i], rc[i])
			}
		}
	}
}

// TestResumeAfterCleanStop: no in-flight proposal, nothing lost.
func TestResumeAfterCleanStop(t *testing.T) {
	const seed, every = 5, 10
	dir := t.TempDir()
	algos, m := syntheticAlgos()
	tu := mustNew(t, algos, nominal.NewEpsilonGreedy(0.2), DefaultFactory, seed,
		WithCheckpoint(dir, every))
	tu.Run(47, m)
	tu = nil

	re, err := resumeSynthetic(t, dir, every, seed)
	if err != nil {
		t.Fatal(err)
	}
	if re.Iterations() != 47 {
		t.Errorf("recovered %d iterations, want 47", re.Iterations())
	}
	re.Run(53, m)
	ref := runRef(t, seed, 100)
	b1, _, v1 := re.Best()
	b2, _, v2 := ref.Best()
	if b1 != b2 || v1 != v2 {
		t.Errorf("resumed best (%d, %g) differs from reference (%d, %g)", b1, v1, b2, v2)
	}
}

// newestSnapshots returns the path of dir's newest segment and its valid
// snapshot lines.
func newestSnapshots(t *testing.T, dir string) (string, []checkpoint.SnapshotLine) {
	t.Helper()
	segs := checkpoint.Segments(dir)
	if len(segs) == 0 {
		t.Fatalf("%s holds no segment", dir)
	}
	path := checkpoint.SegPath(dir, segs[len(segs)-1])
	info, err := checkpoint.InspectSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, info.Snapshots
}

// corruptSnapshotLine flips a byte in the middle of snapshot line s of
// the segment at path.
func corruptSnapshotLine(t *testing.T, path string, s checkpoint.SnapshotLine) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[s.Offset+int64(s.Len/2)] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestResumeCorruptNewestSnapshot: flipping a byte in the newest snapshot
// line must silently fall back to the previous snapshot plus the records
// after it — same state, no error.
func TestResumeCorruptNewestSnapshot(t *testing.T) {
	const seed, every = 7, 10
	dir := t.TempDir()
	algos, m := syntheticAlgos()
	tu := mustNew(t, algos, nominal.NewEpsilonGreedy(0.2), DefaultFactory, seed,
		WithCheckpoint(dir, every))
	tu.Run(35, m)
	tu = nil

	path, snaps := newestSnapshots(t, dir)
	if len(snaps) < 2 {
		t.Fatalf("want ≥ 2 snapshot lines, have %v", snaps)
	}
	corruptSnapshotLine(t, path, snaps[len(snaps)-1])

	re, err := resumeSynthetic(t, dir, every, seed)
	if err != nil {
		t.Fatalf("resume with corrupt newest snapshot: %v", err)
	}
	if re.Iterations() != 35 {
		t.Errorf("recovered %d iterations, want 35", re.Iterations())
	}
	// The resume opens a new segment with a fresh snapshot, healing the
	// directory: a second resume must load it directly.
	re = nil
	re2, err := resumeSynthetic(t, dir, every, seed)
	if err != nil {
		t.Fatalf("second resume: %v", err)
	}
	if re2.Iterations() != 35 {
		t.Errorf("second resume recovered %d iterations, want 35", re2.Iterations())
	}
}

// TestResumeTornJournalLine: a torn final journal line (the classic
// crash artifact) costs exactly that iteration, nothing more.
func TestResumeTornJournalLine(t *testing.T) {
	const seed, every = 11, 100 // no periodic snapshot: everything after the initial one
	dir := t.TempDir()
	algos, m := syntheticAlgos()
	tu := mustNew(t, algos, nominal.NewEpsilonGreedy(0.2), DefaultFactory, seed,
		WithCheckpoint(dir, every))
	tu.Run(20, m)
	tu = nil

	wal, _ := newestSnapshots(t, dir)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := resumeSynthetic(t, dir, every, seed)
	if err != nil {
		t.Fatal(err)
	}
	if re.Iterations() != 19 {
		t.Errorf("recovered %d iterations after torn line, want 19", re.Iterations())
	}
}

// TestResumeRejectsDifferentConfiguration: a checkpoint written by one
// algorithm set must not silently resume into another.
func TestResumeRejectsDifferentConfiguration(t *testing.T) {
	const seed, every = 13, 10
	dir := t.TempDir()
	algos, m := syntheticAlgos()
	tu := mustNew(t, algos, nominal.NewEpsilonGreedy(0.2), DefaultFactory, seed,
		WithCheckpoint(dir, every))
	tu.Run(15, m)
	tu = nil

	other := []Algorithm{{Name: "impostor-a"}, {Name: "impostor-b"}, {Name: "impostor-c"}}
	if _, err := NewTuner(other, nominal.NewEpsilonGreedy(0.2), DefaultFactory, seed, WithCheckpoint(dir, every)); err == nil {
		t.Error("resuming with renamed algorithms succeeded")
	}
	if _, err := NewTuner(algos[:2], nominal.NewEpsilonGreedy(0.2), DefaultFactory, seed, WithCheckpoint(dir, every)); err == nil {
		t.Error("resuming with fewer algorithms succeeded")
	}
}

// TestResumeEmptyDir: a directory without state is a fresh start, but a
// directory whose state cannot be read is an error from every
// constructor, never a fresh engine — silently losing a run's history
// would defeat the feature.
func TestResumeEmptyDir(t *testing.T) {
	const seed, every = 1, 10
	algos, m := syntheticAlgos()
	sel := func() nominal.Selector { return nominal.NewEpsilonGreedy(0.2) }
	for name, dir := range map[string]string{
		"empty":   t.TempDir(),
		"missing": filepath.Join(t.TempDir(), "not", "yet"),
	} {
		tu, err := resumeSynthetic(t, dir, every, seed)
		if err != nil {
			t.Fatalf("%s dir: %v", name, err)
		}
		if got := tu.Iterations(); got != 0 {
			t.Errorf("%s dir: fresh tuner at iteration %d, want 0", name, got)
		}
		info, err := checkpoint.InspectSegment(checkpoint.SegPath(dir, 1))
		if err != nil || len(info.Snapshots) != 1 || info.Snapshots[0].Iter != 0 {
			t.Errorf("%s dir: initial snapshot not written: %+v, %v", name, info, err)
		}
	}

	dir := t.TempDir()
	tu := mustNew(t, algos, sel(), DefaultFactory, seed, WithCheckpoint(dir, every))
	tu.Run(35, m)
	tu = nil
	gens := checkpoint.Segments(dir)
	for _, g := range gens {
		path := checkpoint.SegPath(dir, g)
		info, err := checkpoint.InspectSegment(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range info.Snapshots {
			corruptSnapshotLine(t, path, s)
		}
	}
	builds := map[string]func() error{
		"NewTuner": func() error {
			_, err := NewTuner(algos, sel(), DefaultFactory, seed, WithCheckpoint(dir, every))
			return err
		},
		"EngineSpec.Build": func() error {
			_, err := EngineSpec{Seed: seed, SnapshotEvery: every}.Build(algos, sel(), DefaultFactory, dir)
			return err
		},
	}
	for name, build := range builds {
		if err := build(); !errors.Is(err, checkpoint.ErrNoSnapshot) {
			t.Errorf("%s over all-corrupt snapshots: err = %v, want %v", name, err, checkpoint.ErrNoSnapshot)
		}
	}
	if got := checkpoint.Segments(dir); !slices.Equal(got, gens) {
		t.Errorf("failed builds rewrote the directory: segments %v, want %v", got, gens)
	}
}

// TestRebuildOverCheckpointResumes: building again over a directory
// with state resumes it, for every constructor. A fresh start there
// would write snapshots older than the ones on disk, which pruning
// deletes as soon as they are written, so the next restart would come
// back with the previous run's state.
func TestRebuildOverCheckpointResumes(t *testing.T) {
	sel := func() nominal.Selector { return nominal.NewEpsilonGreedy(0.10) }
	type engine interface {
		Iterations() int
		RunPool(workers, total int, m Measure)
	}
	cases := []struct {
		name  string
		build func(dir string) (engine, error)
	}{
		{"NewTuner", func(dir string) (engine, error) {
			tu, err := NewTuner(engineAlgos(), sel(), nil, 3, WithCheckpoint(dir, 10))
			return sequentialPool{tu}, err
		}},
		{"NewConcurrentTuner", func(dir string) (engine, error) {
			return NewTuner(engineAlgos(), sel(), nil, 3, WithCheckpoint(dir, 10))
		}},
		{"EngineSpec.Build", func(dir string) (engine, error) {
			return EngineSpec{Seed: 3, SnapshotEvery: 10}.Build(engineAlgos(), sel(), nil, dir)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			want := 0
			for _, n := range []int{65, 30, 0} {
				e, err := tc.build(dir)
				if err != nil {
					t.Fatal(err)
				}
				if got := e.Iterations(); got != want {
					t.Fatalf("build over a checkpoint at %d iterations came back at %d", want, got)
				}
				e.RunPool(2, n, engineMeasure)
				want += n
			}
		})
	}
}

// sequentialPool drives a Tuner through the engines' RunPool signature.
type sequentialPool struct{ *Tuner }

func (p sequentialPool) RunPool(_, total int, m Measure) { p.Run(total, m) }

// TestCheckpointWithGuardAndFailures: failed iterations journal their
// kind and penalty and replay through ObserveFailure, reconstructing the
// guard's counters and the quarantine's circuit state.
func TestCheckpointWithGuardAndFailures(t *testing.T) {
	const seed, every, iters = 17, 25, 120
	algos, m := syntheticAlgos()
	const faulty = 2
	inject := func(algo int, cfg param.Config) float64 {
		if algo == faulty {
			return math.NaN() // always invalid
		}
		return m(algo, cfg)
	}
	mkSel := func() *guard.Quarantine {
		q := guard.NewQuarantine(nominal.NewEpsilonGreedy(0.2))
		q.K = 2
		return q
	}
	opts := func() []Option {
		return []Option{WithGuard(guard.WithTimeout(time.Second))}
	}

	ref := mustNew(t, algos, mkSel(), DefaultFactory, seed, opts()...)
	ref.Run(iters, inject)

	dir := t.TempDir()
	tu := mustNew(t, algos, mkSel(), DefaultFactory, seed,
		append(opts(), WithCheckpoint(dir, every))...)
	for tu.Iterations() < 60 {
		tu.Step(inject)
	}
	tu.Next()
	tu = nil

	re, err := NewTuner(algos, mkSel(), DefaultFactory, seed, append(opts(), WithCheckpoint(dir, every))...)
	if err != nil {
		t.Fatal(err)
	}
	if re.Iterations() != 60 {
		t.Fatalf("recovered %d iterations, want 60", re.Iterations())
	}
	for re.Iterations() < iters {
		re.Step(inject)
	}

	fs, rfs := re.FailureStats(), ref.FailureStats()
	if fs.Total != rfs.Total || fs.Invalids != rfs.Invalids {
		t.Errorf("failure stats diverged: %+v vs %+v", fs, rfs)
	}
	b1, _, v1 := re.Best()
	b2, _, v2 := ref.Best()
	if b1 != b2 || v1 != v2 {
		t.Errorf("resumed best (%d, %g) differs from reference (%d, %g)", b1, v1, b2, v2)
	}
	if c, rc := re.Counts(), ref.Counts(); c[faulty] != rc[faulty] {
		t.Errorf("faulty arm selected %d times, reference %d", c[faulty], rc[faulty])
	}
}

// TestCheckpointErrClearedByRoll: after a journal error the next
// snapshot starts a fresh segment, and that segment's creation clears
// the error; the state it holds — the lost records' effects included —
// resumes.
func TestCheckpointErrClearedByRoll(t *testing.T) {
	dir := t.TempDir()
	disk := crashtest.Install(t)
	algos, m := syntheticAlgos()
	build := func() *Tuner {
		return mustNew(t, algos, nominal.NewEpsilonGreedy(0.2), DefaultFactory, 1, WithCheckpoint(dir, 5))
	}
	tu := build()
	tu.Run(3, m)
	disk.CutAt(1)
	tu.Run(1, m)
	if tu.CheckpointErr() == nil {
		t.Fatal("no checkpoint error after a failed journal write")
	}
	if err := disk.PowerLoss(); err != nil { // the disk is back; the journal's handle stays dead
		t.Fatal(err)
	}
	creates := disk.Creates()
	tu.Run(1, m) // iteration 5: a snapshot
	if err := tu.CheckpointErr(); err != nil {
		t.Fatalf("checkpoint error after the snapshot rolled a new segment: %v", err)
	}
	if disk.Creates() != creates+1 {
		t.Fatalf("%d segments created by the snapshot after the error, want 1", disk.Creates()-creates)
	}
	tu.Run(4, m)
	if re := build(); re.Iterations() != 9 {
		t.Fatalf("resumed at %d iterations, want 9", re.Iterations())
	}
}

// TestCheckpointErrAbsorbed: post-construction I/O failure degrades
// durability but never the tuning loop.
func TestCheckpointErrAbsorbed(t *testing.T) {
	dir := t.TempDir()
	algos, m := syntheticAlgos()
	tu := mustNew(t, algos, nominal.NewEpsilonGreedy(0.2), DefaultFactory, 1,
		WithCheckpoint(dir, 5))
	tu.Run(7, m)
	if err := tu.CheckpointErr(); err != nil {
		t.Fatalf("healthy run has checkpoint error: %v", err)
	}
	// Yank the directory out from under the tuner.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	tu.Run(20, m) // must not panic or stop
	if tu.Iterations() != 27 {
		t.Errorf("tuning stopped at %d iterations", tu.Iterations())
	}
	if tu.CheckpointErr() == nil {
		t.Error("expected a checkpoint error after losing the directory")
	}
}
