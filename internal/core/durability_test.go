package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/checkpoint/crashtest"
	"repro/internal/guard"
	"repro/internal/nominal"
)

// durableEngine is the surface the crash-point test drives, common to
// ConcurrentTuner and ShardedEngine.
type durableEngine interface {
	LeaseN(n int) ([]Trial, error)
	CompleteN(results []TrialResult) []error
	FailN(fails []TrialFailure) []error
	Absorb(obs []nominal.Observation) int
	Iterations() int
	Counts() []int
}

// TestCrashPointsLoseNoAcknowledgedTrial cuts the power at seeded
// journal writes while mixed CompleteN, FailN and Absorb batches run,
// throws away every unsynced byte — or, on a torn disk, a random suffix
// of them — and rebuilds over the directory. Every trial whose call had
// returned must come back; of the batch in flight at the cut, any
// prefix may.
func TestCrashPointsLoseNoAcknowledgedTrial(t *testing.T) {
	sel := func() nominal.Selector { return nominal.NewEpsilonGreedy(0.10) }
	cases := []struct {
		name  string
		build func(dir string) (durableEngine, error)
	}{
		{"NewConcurrentTuner", func(dir string) (durableEngine, error) {
			return NewConcurrentTuner(engineAlgos(), sel(), nil, 5, WithCheckpoint(dir, 10))
		}},
		{"NewShardedEngine", func(dir string) (durableEngine, error) {
			return NewShardedEngine(engineAlgos(), sel(), nil, 5, WithShards(2), WithCheckpoint(dir, 10))
		}},
		{"EngineSpec.Build", func(dir string) (durableEngine, error) {
			return EngineSpec{Seed: 5, SnapshotEvery: 10}.Build(engineAlgos(), sel(), nil, dir)
		}},
	}
	for _, tc := range cases {
		for _, torn := range []bool{false, true} {
			for seed := int64(1); seed <= 8; seed++ {
				name := fmt.Sprintf("%s/seed=%d", tc.name, seed)
				if torn {
					name = fmt.Sprintf("%s/torn/seed=%d", tc.name, seed)
				}
				t.Run(name, func(t *testing.T) { crashAndRebuild(t, tc.build, seed, torn) })
			}
		}
	}
}

// crashAndRebuild runs seeded batches through the engine build makes
// until the power cut, rebuilds over the directory after the loss, and
// checks the rebuilt counts against the acknowledged and in-flight ones.
// A torn disk keeps a random prefix of the unsynced bytes: the write the
// cut landed on carries the in-flight batch, so any prefix of that batch
// may survive, a torn final line included.
func crashAndRebuild(t *testing.T, build func(dir string) (durableEngine, error), seed int64, torn bool) {
	dir := t.TempDir()
	disk := crashtest.Install(t)
	if torn {
		disk.Tear(seed)
	}
	e, err := build(dir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	disk.CutAt(1 + rng.Intn(200))
	acked := e.Counts() // per-arm counts every returned call reached
	for !disk.Down() {
		runBatch(t, e, rng)
		if !disk.Down() {
			acked = e.Counts()
		}
	}
	upper := e.Counts() // the in-flight batch included
	if err := disk.PowerLoss(); err != nil {
		t.Fatal(err)
	}

	re, err := build(dir)
	if err != nil {
		t.Fatalf("rebuild after the power cut: %v", err)
	}
	got := re.Counts()
	sum := 0
	for i := range got {
		if got[i] < acked[i] || got[i] > upper[i] {
			t.Fatalf("arm %d: rebuilt count %d, want between acknowledged %d and in-flight %d (counts %v, acked %v)",
				i, got[i], acked[i], upper[i], got, acked)
		}
		sum += got[i]
	}
	if re.Iterations() != sum {
		t.Fatalf("rebuilt Iterations() = %d, counts sum to %d", re.Iterations(), sum)
	}
}

// runBatch drives one seeded batch of 1–16 trials through e: a CompleteN
// or FailN of fresh leases, or an Absorb.
func runBatch(t *testing.T, e durableEngine, rng *rand.Rand) {
	t.Helper()
	n := 1 + rng.Intn(16)
	op := rng.Intn(3)
	if op == 2 {
		obs := make([]nominal.Observation, n)
		for i := range obs {
			obs[i] = nominal.Observation{Arm: rng.Intn(4), Value: 1 + rng.Float64(), Failed: rng.Intn(5) == 0}
		}
		if got := e.Absorb(obs); got != n {
			t.Fatalf("Absorb applied %d of %d", got, n)
		}
		return
	}
	trs, err := e.LeaseN(n)
	if err != nil {
		t.Fatal(err)
	}
	var errs []error
	if op == 0 {
		res := make([]TrialResult, len(trs))
		for i, tr := range trs {
			res[i] = TrialResult{ID: tr.ID, Value: engineMeasure(tr.Algo, tr.Config)}
		}
		errs = e.CompleteN(res)
	} else {
		fails := make([]TrialFailure, len(trs))
		for i, tr := range trs {
			fails[i] = TrialFailure{ID: tr.ID, Failure: guard.Failure{Kind: guard.Panic, Err: errors.New("boom")}}
		}
		errs = e.FailN(fails)
	}
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalSyncsPerCall pins the durability cost: one journal sync per
// engine operation that journals, however many records it wrote, and
// none without WithCheckpoint.
func TestJournalSyncsPerCall(t *testing.T) {
	withDir := func(dir string, opts ...Option) []Option {
		if dir == "" {
			return opts
		}
		return append(opts, WithCheckpoint(dir, 0))
	}
	lease := func(t *testing.T, n int, leaseN func(int) ([]Trial, error)) []Trial {
		trs, err := leaseN(n)
		if err != nil || len(trs) != n {
			t.Fatalf("leased %d of %d: %v", len(trs), n, err)
		}
		return trs
	}
	results := func(trs []Trial) []TrialResult {
		res := make([]TrialResult, len(trs))
		for i, tr := range trs {
			res[i] = TrialResult{ID: tr.ID, Value: engineMeasure(tr.Algo, tr.Config)}
		}
		return res
	}
	cases := []struct {
		name string
		// prepare builds the engine (durable when dir is set) and returns
		// the one call whose syncs are counted.
		prepare func(t *testing.T, dir string) func()
		want    int
	}{
		{"CompleteN of 16", func(t *testing.T, dir string) func() {
			ct := newEngine(t, 3, withDir(dir)...)
			trs := lease(t, 16, ct.LeaseN)
			return func() { ct.CompleteN(results(trs)) }
		}, 1},
		{"FailN of 16", func(t *testing.T, dir string) func() {
			ct := newEngine(t, 3, withDir(dir)...)
			trs := lease(t, 16, ct.LeaseN)
			fails := make([]TrialFailure, len(trs))
			for i, tr := range trs {
				fails[i] = TrialFailure{ID: tr.ID, Failure: guard.Failure{Kind: guard.Invalid}}
			}
			return func() { ct.FailN(fails) }
		}, 1},
		{"Complete", func(t *testing.T, dir string) func() {
			ct := newEngine(t, 3, withDir(dir)...)
			tr := lease(t, 1, ct.LeaseN)[0]
			return func() { ct.Complete(tr.ID, 1) }
		}, 1},
		{"Absorb of 16", func(t *testing.T, dir string) func() {
			ct := newEngine(t, 3, withDir(dir)...)
			obs := make([]nominal.Observation, 16)
			for i := range obs {
				obs[i] = nominal.Observation{Arm: i % 4, Value: float64(1 + i)}
			}
			return func() { ct.Absorb(obs) }
		}, 1},
		{"2-shard fold of 16", func(t *testing.T, dir string) func() {
			e, err := NewShardedEngine(engineAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 3, withDir(dir, WithShards(2))...)
			if err != nil {
				t.Fatal(err)
			}
			trs := lease(t, 16, func(n int) ([]Trial, error) { return e.LeaseNOn(0, n) })
			return func() { e.CompleteN(results(trs)); e.Flush() }
		}, 1},
		{"LeaseN of 16", func(t *testing.T, dir string) func() {
			ct := newEngine(t, 3, withDir(dir)...)
			return func() { lease(t, 16, ct.LeaseN) }
		}, 0},
	}
	for _, tc := range cases {
		for _, durable := range []bool{true, false} {
			name, want := tc.name, tc.want
			if !durable {
				name, want = name+" without checkpoint", 0
			}
			t.Run(name, func(t *testing.T) {
				disk := crashtest.Install(t)
				dir := ""
				if durable {
					dir = t.TempDir()
				}
				call := tc.prepare(t, dir)
				before := disk.Syncs()
				call()
				if got := disk.Syncs() - before; got != want {
					t.Fatalf("%d journal syncs, want %d", got, want)
				}
			})
		}
	}
}

// TestAbsorbAcrossSnapshotSurvivesPowerLoss: an Absorb batch that
// crosses a snapshot boundary journals its first records into the
// outgoing generation, which the snapshot closes mid-batch. Closing must
// sync them, or a power loss followed by a corrupt newest snapshot
// leaves the fallback generation's journal short of the batch and the
// resume cannot recover it.
func TestAbsorbAcrossSnapshotSurvivesPowerLoss(t *testing.T) {
	dir := t.TempDir()
	disk := crashtest.Install(t)
	ct := newEngine(t, 9, WithCheckpoint(dir, 10))
	obs := make([]nominal.Observation, 15)
	for i := range obs {
		obs[i] = nominal.Observation{Arm: i % 4, Value: float64(1 + i)}
	}
	if got := ct.Absorb(obs); got != len(obs) {
		t.Fatalf("Absorb applied %d, want %d", got, len(obs))
	}
	want := ct.Counts()
	if err := disk.PowerLoss(); err != nil {
		t.Fatal(err)
	}

	gens := checkpoint.Generations(dir)
	if len(gens) != 2 || gens[1] != 10 {
		t.Fatalf("snapshot generations %v, want [0 10]", gens)
	}
	path := checkpoint.SnapPath(dir, gens[1])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := NewConcurrentTuner(engineAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 9, WithCheckpoint(dir, 10))
	if err != nil {
		t.Fatalf("resume from the fallback generation: %v", err)
	}
	if re.Iterations() != len(obs) {
		t.Fatalf("resumed at %d iterations, want every absorbed observation (%d)", re.Iterations(), len(obs))
	}
	for i, c := range re.Counts() {
		if c != want[i] {
			t.Fatalf("resumed counts %v, want %v", re.Counts(), want)
		}
	}
}
