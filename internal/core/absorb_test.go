package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/nominal"
)

// TestAbsorbFeedsSelectorAndBest absorbs a one-sided observation stream
// and checks it reaches the selector (selection shifts to the absorbed
// arm), the global best, the counts, and the stats counter — while
// phase one stays untouched, exactly like speculative completions.
func TestAbsorbFeedsSelectorAndBest(t *testing.T) {
	ct := newEngine(t, 11)
	// Absorb a strongly winning stream for arm 2 and a failure for arm 0.
	obs := make([]nominal.Observation, 0, 41)
	for i := 0; i < 40; i++ {
		obs = append(obs, nominal.Observation{Arm: 2, Value: 0.5})
	}
	obs = append(obs, nominal.Observation{Arm: 0, Value: 99, Failed: true})
	// Out-of-range and non-finite observations must be skipped.
	obs = append(obs,
		nominal.Observation{Arm: -1, Value: 1},
		nominal.Observation{Arm: 99, Value: 1},
		nominal.Observation{Arm: 1, Value: math.NaN()},
	)
	if got := ct.Absorb(obs); got != 41 {
		t.Fatalf("Absorb applied %d, want 41", got)
	}
	if got := ct.Absorb(nil); got != 0 {
		t.Fatalf("Absorb(nil) = %d, want 0", got)
	}

	algo, _, val := ct.Best()
	if algo != 2 || val != 0.5 {
		t.Fatalf("Best = (%d, %g), want (2, 0.5)", algo, val)
	}
	if it := ct.Iterations(); it != 41 {
		t.Fatalf("Iterations = %d, want 41", it)
	}
	st := ct.Stats()
	if st.Absorbed != 41 || st.Leased != 0 || st.Completed != 0 {
		t.Fatalf("Stats = %+v, want Absorbed=41 and no leases", st)
	}
	fs := ct.FailureStats()
	if fs.Total != 1 || fs.Invalids != 1 {
		t.Fatalf("FailureStats = %+v, want one invalid failure", fs)
	}
	counts := ct.Counts()
	if counts[2] != 40 || counts[0] != 1 {
		t.Fatalf("Counts = %v, want 40 on arm 2 and 1 on arm 0", counts)
	}

	// The selector must have learned: with epsilon 0.1, arm 2 wins the
	// overwhelming majority of subsequent selections.
	picked := 0
	for i := 0; i < 200; i++ {
		tr, err := ct.Lease()
		if err != nil {
			t.Fatal(err)
		}
		if tr.Algo == 2 {
			picked++
		}
		ct.Complete(tr.ID, engineMeasure(tr.Algo, tr.Config))
	}
	if picked < 120 {
		t.Fatalf("absorbed stream did not steer selection: arm 2 picked %d/200", picked)
	}
}

// TestAbsorbJournaled checks absorbed observations are journaled under
// fresh unique trial IDs and replayed when NewConcurrentTuner resumes the
// directory.
func TestAbsorbJournaled(t *testing.T) {
	dir := t.TempDir()
	ct := newEngine(t, 5, WithCheckpoint(dir, 0))
	for i := 0; i < 10; i++ {
		tr, err := ct.Lease()
		if err != nil {
			t.Fatal(err)
		}
		ct.Complete(tr.ID, engineMeasure(tr.Algo, tr.Config))
	}
	obs := []nominal.Observation{{Arm: 1, Value: 0.25}, {Arm: 3, Value: 7}, {Arm: 1, Value: 42, Failed: true}}
	if got := ct.Absorb(obs); got != 3 {
		t.Fatalf("Absorb applied %d, want 3", got)
	}
	if err := ct.CheckpointErr(); err != nil {
		t.Fatal(err)
	}

	// Journal audit: 13 records, unique trial IDs.
	var recs []checkpoint.Record
	for _, seg := range checkpoint.Segments(dir) {
		rs, err := checkpoint.ReadJournal(checkpoint.SegPath(dir, seg))
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rs...)
	}
	if len(recs) != 13 {
		t.Fatalf("journal holds %d records, want 13", len(recs))
	}
	seen := make(map[uint64]bool)
	for _, r := range recs {
		if seen[r.Trial] {
			t.Fatalf("trial ID %d journaled twice", r.Trial)
		}
		seen[r.Trial] = true
	}

	// The resume must replay the absorbed records (as speculative: selector
	// and best, not phase one) and issue fresh IDs above them.
	rt, err := NewConcurrentTuner(engineAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 5, WithCheckpoint(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rt.Iterations(), ct.Iterations(); got != want {
		t.Fatalf("resumed Iterations = %d, want %d", got, want)
	}
	algo, _, val := rt.Best()
	if algo != 1 || val != 0.25 {
		t.Fatalf("resumed Best = (%d, %g), want the absorbed (1, 0.25)", algo, val)
	}
	tr, err := rt.Lease()
	if err != nil {
		t.Fatal(err)
	}
	if seen[tr.ID] {
		t.Fatalf("resumed engine re-issued journaled trial ID %d", tr.ID)
	}
}

// TestAbsorbSharded checks the sharded path: absorbed observations
// reach the authoritative selector immediately and every shard replica
// at its next fold.
func TestAbsorbSharded(t *testing.T) {
	eng, err := NewShardedEngine(engineAlgos(), nominal.NewEpsilonGreedy(0.05), nil, 9,
		WithShards(4), WithMergeEvery(4))
	if err != nil {
		t.Fatal(err)
	}
	obs := make([]nominal.Observation, 0, 60)
	for i := 0; i < 60; i++ {
		obs = append(obs, nominal.Observation{Arm: 3, Value: 0.125})
	}
	if got := eng.Absorb(obs); got != 60 {
		t.Fatalf("Absorb applied %d, want 60", got)
	}
	if st := eng.Stats(); st.Absorbed != 60 {
		t.Fatalf("Stats.Absorbed = %d, want 60", st.Absorbed)
	}
	algo, _, val := eng.Best()
	if algo != 3 || val != 0.125 {
		t.Fatalf("Best = (%d, %g), want (3, 0.125)", algo, val)
	}
	// Drive every shard through folds; the replicas must have replayed
	// the absorbed stream, steering selection toward arm 3.
	eng.RunPool(8, 400, engineMeasure)
	counts := eng.Counts()
	if counts[3] < 250 {
		t.Fatalf("replicas did not absorb the stream: counts = %v", counts)
	}
}

// TestAliveDoesNotExtend checks Alive reports liveness without
// extending lease deadlines, on both engine variants.
func TestAliveDoesNotExtend(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	ct := newEngine(t, 3, WithLeaseTimeout(50*time.Millisecond))
	ct.now = clock

	tr, err := ct.Lease()
	if err != nil {
		t.Fatal(err)
	}
	if alive := ct.Alive([]uint64{tr.ID, tr.ID + 999}); !alive[0] || alive[1] {
		t.Fatalf("Alive = %v, want [true false]", alive)
	}
	// Advance past the original deadline: had Alive extended it (as
	// Heartbeat does), the lease would survive this sweep.
	now = now.Add(60 * time.Millisecond)
	if n := ct.ReclaimExpired(); n != 1 {
		t.Fatalf("reclaimed %d leases after Alive, want 1 (Alive must not extend)", n)
	}
	if alive := ct.Alive([]uint64{tr.ID}); alive[0] {
		t.Fatal("reclaimed lease still reported alive")
	}

	// Sharded: liveness routes to the owning shard.
	eng, err := NewShardedEngine(engineAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 4, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	str, err := eng.Lease()
	if err != nil {
		t.Fatal(err)
	}
	if alive := eng.Alive([]uint64{str.ID, 1}); !alive[0] || alive[1] {
		t.Fatalf("sharded Alive = %v, want [true false]", alive)
	}
}

// TestEngineCheckpoint checks the forced snapshot path used by drain.
func TestEngineCheckpoint(t *testing.T) {
	if err := newEngine(t, 1).Checkpoint(); err != nil {
		t.Fatalf("Checkpoint without WithCheckpoint = %v, want nil", err)
	}
	dir := t.TempDir()
	ct := newEngine(t, 2, WithCheckpoint(dir, 0))
	for i := 0; i < 5; i++ {
		tr, err := ct.Lease()
		if err != nil {
			t.Fatal(err)
		}
		ct.Complete(tr.ID, engineMeasure(tr.Algo, tr.Config))
	}
	if err := ct.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The forced snapshot must cover all five iterations: a resume
	// without any journal tail lands exactly there.
	rt, err := NewConcurrentTuner(engineAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 2, WithCheckpoint(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Iterations() != 5 {
		t.Fatalf("resumed at iteration %d, want 5", rt.Iterations())
	}
}
