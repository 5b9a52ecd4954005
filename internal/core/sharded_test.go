package core

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/guard"
	"repro/internal/nominal"
	"repro/internal/param"
)

func shardedAlgos() []Algorithm {
	return []Algorithm{
		{Name: "plain"},
		{Name: "tuned", Space: param.NewSpace(param.NewInterval("x", 0, 10))},
		{Name: "other", Space: param.NewSpace(param.NewRatio("r", 1, 4))},
	}
}

func shardedMeasure(algo int, cfg param.Config) float64 {
	v := float64(5 + 2*algo)
	for _, x := range cfg {
		v += 0.01 * math.Abs(x-3)
	}
	return v
}

// TestShardedSingleShardParity pins the sharding boundary: with one
// shard (the default) the ShardedEngine is a transparent wrapper, so a
// single-flight lease/complete loop must reproduce the sequential
// tuner's decision sequence exactly — same algorithm, same
// configuration, every iteration.
func TestShardedSingleShardParity(t *testing.T) {
	const iters = 300
	seq, err := NewTuner(shardedAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 77)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewShardedEngine(shardedAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 77)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Shards() != 1 {
		t.Fatalf("default Shards() = %d, want 1", eng.Shards())
	}
	for i := 0; i < iters; i++ {
		wantAlgo, wantCfg := seq.Next()
		tr, err := eng.Lease()
		if err != nil {
			t.Fatal(err)
		}
		if tr.Algo != wantAlgo || !tr.Config.Equal(wantCfg) {
			t.Fatalf("iter %d: sharded (%d, %v), sequential (%d, %v)",
				i, tr.Algo, tr.Config, wantAlgo, wantCfg)
		}
		v := shardedMeasure(tr.Algo, tr.Config)
		seq.Observe(v)
		if err := eng.Complete(tr.ID, v); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := eng.Counts(), seq.Counts(); len(got) != len(want) {
		t.Fatalf("counts length %d vs %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("counts[%d] = %d, sequential %d", i, got[i], want[i])
			}
		}
	}
}

// TestOptionScope checks that the unified Option type is checked, not
// silently ignored: an option outside a constructor's scope must error
// with ErrOptionScope.
func TestOptionScope(t *testing.T) {
	algos := shardedAlgos()
	sel := func() nominal.Selector { return nominal.NewEpsilonGreedy(0.10) }

	if _, err := NewTuner(algos, sel(), nil, 1, WithMaxInFlight(4)); !errors.Is(err, ErrOptionScope) {
		t.Fatalf("NewTuner(WithMaxInFlight): err = %v, want ErrOptionScope", err)
	}
	if _, err := NewTuner(algos, sel(), nil, 1, WithShards(2)); !errors.Is(err, ErrOptionScope) {
		t.Fatalf("NewTuner(WithShards): err = %v, want ErrOptionScope", err)
	}
	if _, err := NewConcurrentTuner(algos, sel(), nil, 1, WithShards(2)); !errors.Is(err, ErrOptionScope) {
		t.Fatalf("NewConcurrentTuner(WithShards): err = %v, want ErrOptionScope", err)
	}
	// Every scope at once is exactly what NewShardedEngine accepts.
	if _, err := NewShardedEngine(algos, sel(), nil, 1,
		WithoutHistory(), WithMaxInFlight(64), WithShards(2), WithMergeEvery(8)); err != nil {
		t.Fatalf("NewShardedEngine with all scopes: %v", err)
	}
	// A quarantine wrapper cannot fork; more than one shard must refuse.
	if _, err := NewShardedEngine(algos, guard.NewQuarantine(sel()), nil, 1, WithShards(2)); !errors.Is(err, ErrNotMergeable) {
		t.Fatalf("sharding a quarantine selector: err = %v, want ErrNotMergeable", err)
	}
}

// TestShardedStress hammers an 8-shard engine from 32 goroutines with
// concurrent readers and asserts no completion is lost or
// double-counted. Under -race this is the fold/rebroadcast
// synchronization proof.
func TestShardedStress(t *testing.T) {
	const (
		workers = 32
		shards  = 8
		total   = 4000
	)
	eng, err := NewShardedEngine(shardedAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 9,
		WithShards(shards), WithMergeEvery(16))
	if err != nil {
		t.Fatal(err)
	}
	var done atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers race Best/Counts/Stats/Iterations against the folds.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				eng.Best()
				eng.Counts()
				eng.Stats()
				eng.Iterations()
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < workers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for done.Add(1) <= total {
				trs, err := eng.LeaseNOn(w, 1)
				if err != nil {
					t.Error(err)
					return
				}
				tr := trs[0]
				if done.Load()%97 == 0 {
					err = eng.Fail(tr.ID, guard.Failure{Kind: guard.Panic, Err: errors.New("boom")})
				} else {
					err = eng.Complete(tr.ID, shardedMeasure(tr.Algo, tr.Config))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	eng.Flush()
	if got := eng.Iterations(); got != total {
		t.Fatalf("Iterations() = %d, want %d", got, total)
	}
	st := eng.Stats()
	if st.Completed+st.Failed != total || st.InFlight != 0 || st.Expired != 0 {
		t.Fatalf("stats %+v do not conserve %d trials", st, total)
	}
	if algo, _, val := eng.Best(); algo != 0 || val != 5 {
		t.Fatalf("best = (%d, %v), want algorithm 0 at 5", algo, val)
	}
}

// TestShardedUnknownAndDuplicate checks the report idempotency contract
// across the shard ID space.
func TestShardedUnknownAndDuplicate(t *testing.T) {
	eng, err := NewShardedEngine(shardedAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 2, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := eng.Lease()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Complete(tr.ID, 1); err != nil {
		t.Fatal(err)
	}
	if err := eng.Complete(tr.ID, 1); !errors.Is(err, ErrUnknownTrial) {
		t.Fatalf("duplicate completion: err = %v, want ErrUnknownTrial", err)
	}
	if err := eng.Complete(12345, 1); !errors.Is(err, ErrUnknownTrial) {
		t.Fatalf("foreign trial ID: err = %v, want ErrUnknownTrial", err)
	}
	alive := eng.Heartbeat([]uint64{tr.ID, 7})
	if alive[0] || alive[1] {
		t.Fatalf("heartbeat on settled + foreign IDs = %v, want all false", alive)
	}
}

// TestShardedCheckpointResume runs a sharded session against a
// checkpoint directory and verifies both engines resume it:
// NewShardedEngine (same topology) and plain NewConcurrentTuner (the
// journal is engine-agnostic).
func TestShardedCheckpointResume(t *testing.T) {
	const total = 600
	dir := t.TempDir()
	algos := shardedAlgos()
	eng, err := NewShardedEngine(algos, nominal.NewEpsilonGreedy(0.10), nil, 21,
		WithShards(4), WithMergeEvery(8), WithCheckpoint(dir, 50))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunPool(8, total, shardedMeasure)
	if err := eng.CheckpointErr(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Iterations(); got != total {
		t.Fatalf("Iterations() = %d, want %d", got, total)
	}
	wantCounts := eng.Counts()
	wantAlgo, wantCfg, wantVal := eng.Best()

	check := func(name string, iters int, counts []int, algo int, cfg param.Config, val float64) {
		t.Helper()
		if iters != total {
			t.Fatalf("%s: iterations = %d, want %d", name, iters, total)
		}
		for i := range counts {
			if counts[i] != wantCounts[i] {
				t.Fatalf("%s: counts[%d] = %d, want %d", name, i, counts[i], wantCounts[i])
			}
		}
		if algo != wantAlgo || val != wantVal || !cfg.Equal(wantCfg) {
			t.Fatalf("%s: best (%d, %v, %v), want (%d, %v, %v)", name, algo, cfg, val, wantAlgo, wantCfg, wantVal)
		}
	}

	rs, err := NewShardedEngine(algos, nominal.NewEpsilonGreedy(0.10), nil, 21, WithShards(4), WithCheckpoint(dir, 50))
	if err != nil {
		t.Fatal(err)
	}
	a, c, v := rs.Best()
	check("sharded", rs.Iterations(), rs.Counts(), a, c, v)

	rc, err := NewConcurrentTuner(algos, nominal.NewEpsilonGreedy(0.10), nil, 21, WithCheckpoint(dir, 50))
	if err != nil {
		t.Fatal(err)
	}
	a, c, v = rc.Best()
	check("concurrent", rc.Iterations(), rc.Counts(), a, c, v)

	// The resumed sharded engine keeps going, with trial IDs disjoint
	// from everything journaled.
	tr, err := rs.Lease()
	if err != nil {
		t.Fatal(err)
	}
	if tr.ID < shardIDBase*2 {
		t.Fatalf("post-resume trial ID %d not above the previous incarnation's ID space", tr.ID)
	}
	rs.RunPool(4, 100, shardedMeasure)
	rs.Flush()
	if got := rs.Iterations(); got < total+100 {
		t.Fatalf("post-resume iterations = %d, want >= %d", got, total+100)
	}
}

// TestShardedWinnerAgreement is the in-package slice of ablation A13:
// every shard count must elect the same winner as the sequential tuner
// on a deterministic workload.
func TestShardedWinnerAgreement(t *testing.T) {
	const iters = 1200
	seq, err := NewTuner(shardedAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	seq.Run(iters, shardedMeasure)
	want := argmaxCount(seq.Counts())
	for _, shards := range []int{2, 4, 8} {
		eng, err := NewShardedEngine(shardedAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 5,
			WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		eng.RunPool(2*shards, iters, shardedMeasure)
		if got := argmaxCount(eng.Counts()); got != want {
			t.Fatalf("%d shards: winner %d, sequential %d (counts %v)", shards, got, want, eng.Counts())
		}
	}
}

func argmaxCount(counts []int) int {
	best := 0
	for i, n := range counts {
		if n > counts[best] {
			best = i
		}
	}
	return best
}
