package core

import (
	"slices"
	"testing"

	"repro/internal/nominal"
)

// TestOptionScope: a request for more than one shard fails the
// constructor instead of being silently ignored.
func TestOptionScope(t *testing.T) {
	algos := engineAlgos()
	sel := func() nominal.Selector { return nominal.NewEpsilonGreedy(0.10) }
	for _, n := range []int{0, 2, 4} {
		if _, err := NewTuner(algos, sel(), nil, 1, WithShards(n)); err == nil {
			t.Fatalf("NewTuner(WithShards(%d)) succeeded", n)
		}
	}
	if _, err := NewTuner(algos, sel(), nil, 1,
		WithoutHistory(), WithMaxInFlight(64), WithShards(1)); err != nil {
		t.Fatalf("NewTuner(WithShards(1)): %v", err)
	}
}

// TestShardedSingleShardParity: one shard is the only shard count left,
// and asking for it changes nothing — an engine built with WithShards(1),
// as the benchmark builds its engine, reproduces the sequential tuner's
// decision sequence exactly under a single-flight lease/complete loop.
func TestShardedSingleShardParity(t *testing.T) {
	const iters = 300
	seq, err := NewTuner(engineAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 77)
	if err != nil {
		t.Fatal(err)
	}
	eng := newEngine(t, 77, WithShards(1))
	for i := 0; i < iters; i++ {
		wantAlgo, wantCfg := seq.Next()
		tr, err := eng.Lease()
		if err != nil {
			t.Fatal(err)
		}
		if tr.Algo != wantAlgo || !tr.Config.Equal(wantCfg) {
			t.Fatalf("iter %d: engine (%d, %v), sequential (%d, %v)", i, tr.Algo, tr.Config, wantAlgo, wantCfg)
		}
		v := engineMeasure(tr.Algo, tr.Config)
		seq.Observe(v)
		if err := eng.Complete(tr.ID, v); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := eng.Counts(), seq.Counts(); !slices.Equal(got, want) {
		t.Fatalf("counts %v, sequential %v", got, want)
	}
}
