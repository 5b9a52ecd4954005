package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/checkpoint/crashtest"
	"repro/internal/guard"
	"repro/internal/nominal"
)

// durableEngine is the surface the crash-point test drives.
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
//
// The segment cap is shrunk to a few snapshots' worth, so segments roll
// every few operations and cuts also land on a roll: on the outgoing
// segment's last write, or on the new segment's opening snapshot before
// its directory entry is synced, which the power loss then removes.
func TestCrashPointsLoseNoAcknowledgedTrial(t *testing.T) {
	prev := checkpoint.SetSegmentBytes(4 << 10)
	t.Cleanup(func() { checkpoint.SetSegmentBytes(prev) })
	sel := func() nominal.Selector { return nominal.NewEpsilonGreedy(0.10) }
	cases := []struct {
		name  string
		build func(dir string) (durableEngine, error)
	}{
		{"NewConcurrentTuner", func(dir string) (durableEngine, error) {
			return NewTuner(engineAlgos(), sel(), nil, 5, WithCheckpoint(dir, 10))
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
	ackedCtx := contextsOf(e)
	for !disk.Down() {
		runBatch(t, e, rng)
		if !disk.Down() {
			acked, ackedCtx = e.Counts(), contextsOf(e)
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
	// A contextual engine's contexts come from its splits: every one a
	// returned call saw must come back.
	rebuilt, ctxs := contextsOf(re), map[string]bool{}
	for _, c := range rebuilt {
		ctxs[c] = true
	}
	for _, c := range ackedCtx {
		if !ctxs[c] {
			t.Fatalf("context %s lost in the power cut: rebuilt %v, acknowledged %v", c, rebuilt, ackedCtx)
		}
	}
}

// contextsOf returns a contextual engine's contexts, nil for others.
func contextsOf(e durableEngine) []string {
	if c, ok := e.(interface{ Contexts() []string }); ok {
		return c.Contexts()
	}
	return nil
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

// diskCost is what one engine operation costs the journal's disk.
type diskCost struct{ syncs, writes, creates, dirSyncs int }

func costOf(d *crashtest.Disk) diskCost {
	return diskCost{d.Syncs(), d.Writes(), d.Creates(), d.DirSyncs()}
}

// TestJournalSyncsPerCall pins the durability cost: one journal write
// and one sync per engine operation that journals, however many records
// it wrote — a snapshot line included — and no file created or directory
// synced; none of either without WithCheckpoint. Only a segment roll
// creates a file: the outgoing segment's records are synced, the new
// segment's opening snapshot is written and synced, its directory is
// synced, and the operation's remaining records take the usual write and
// sync.
func TestJournalSyncsPerCall(t *testing.T) {
	withDir := func(dir string, every int, opts ...Option) []Option {
		if dir == "" {
			return opts
		}
		return append(opts, WithCheckpoint(dir, every))
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
	completeN := func(every int) func(t *testing.T, dir string) func() {
		return func(t *testing.T, dir string) func() {
			ct := newEngine(t, 3, withDir(dir, every)...)
			trs := lease(t, 16, ct.LeaseN)
			return func() { ct.CompleteN(results(trs)) }
		}
	}
	one := diskCost{syncs: 1, writes: 1}
	cases := []struct {
		name string
		// prepare builds the engine (durable when dir is set) and returns
		// the one call whose disk operations are counted.
		prepare func(t *testing.T, dir string) func()
		want    diskCost
	}{
		{"CompleteN of 16", completeN(0), one},
		{"CompleteN of 16 across a snapshot boundary", completeN(10), one},
		{"CompleteN of 16 across a segment roll", func(t *testing.T, dir string) func() {
			call := completeN(10)(t, dir)
			prev := checkpoint.SetSegmentBytes(1) // every snapshot rolls
			t.Cleanup(func() { checkpoint.SetSegmentBytes(prev) })
			return call
		}, diskCost{syncs: 3, writes: 3, creates: 1, dirSyncs: 1}},
		{"FailN of 16", func(t *testing.T, dir string) func() {
			ct := newEngine(t, 3, withDir(dir, 0)...)
			trs := lease(t, 16, ct.LeaseN)
			fails := make([]TrialFailure, len(trs))
			for i, tr := range trs {
				fails[i] = TrialFailure{ID: tr.ID, Failure: guard.Failure{Kind: guard.Invalid}}
			}
			return func() { ct.FailN(fails) }
		}, one},
		{"Complete", func(t *testing.T, dir string) func() {
			ct := newEngine(t, 3, withDir(dir, 0)...)
			tr := lease(t, 1, ct.LeaseN)[0]
			return func() { ct.Complete(tr.ID, 1) }
		}, one},
		{"Absorb of 16", func(t *testing.T, dir string) func() {
			ct := newEngine(t, 3, withDir(dir, 0)...)
			obs := make([]nominal.Observation, 16)
			for i := range obs {
				obs[i] = nominal.Observation{Arm: i % 4, Value: float64(1 + i)}
			}
			return func() { ct.Absorb(obs) }
		}, one},
		{"LeaseN of 16", func(t *testing.T, dir string) func() {
			ct := newEngine(t, 3, withDir(dir, 0)...)
			lease(t, 1, ct.LeaseN) // journals the first trial-ID mark
			return func() { lease(t, 16, ct.LeaseN) }
		}, diskCost{}},
		{"LeaseN across a trial-ID mark", func(t *testing.T, dir string) func() {
			ct := newEngine(t, 3, withDir(dir, 0)...)
			return func() { lease(t, 16, ct.LeaseN) }
		}, one},
	}
	for _, tc := range cases {
		for _, durable := range []bool{true, false} {
			name, want := tc.name, tc.want
			if !durable {
				name, want = name+" without checkpoint", diskCost{}
			}
			t.Run(name, func(t *testing.T) {
				disk := crashtest.Install(t)
				dir := ""
				if durable {
					dir = t.TempDir()
				}
				call := tc.prepare(t, dir)
				before := costOf(disk)
				call()
				after := costOf(disk)
				got := diskCost{after.syncs - before.syncs, after.writes - before.writes,
					after.creates - before.creates, after.dirSyncs - before.dirSyncs}
				if got != want {
					t.Fatalf("journal cost %+v, want %+v", got, want)
				}
			})
		}
	}
}

// TestAbsorbAcrossSnapshotSurvivesPowerLoss: an Absorb batch that
// crosses a snapshot boundary journals its first records, the snapshot
// line and the rest of the batch in one write. The batch's one sync must
// cover all of it, or a power loss followed by a corrupt newest snapshot
// leaves the fallback snapshot's records short of the batch and the
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

	path, snaps := newestSnapshots(t, dir)
	if len(snaps) != 2 || snaps[1].Iter != 10 {
		t.Fatalf("snapshot lines %+v, want iterations [0 10]", snaps)
	}
	corruptSnapshotLine(t, path, snaps[1])

	re, err := NewTuner(engineAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 9, WithCheckpoint(dir, 10))
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
