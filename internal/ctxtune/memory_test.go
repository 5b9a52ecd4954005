//go:build !race

package ctxtune

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/nominal"
	"repro/internal/param"
)

// liveHeapGrowthBound bounds how far the live heap of a service engine
// may grow between its 10,000th and 20,000th trial. Engines that log one
// Record per trial grow by 0.77 MB (spec-built) and 1.6 MB (contextual)
// over that span in this test; engines that keep only bounded windows
// grow by less than 20 KB.
const liveHeapGrowthBound = 256 << 10

// liveHeap returns the bytes of live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// checkNoPerTrialLog fails when eng keeps a per-trial log: History must
// be empty and every per-algorithm timeline within its bound.
func checkNoPerTrialLog(t *testing.T, name string, eng *core.Tuner) {
	t.Helper()
	if h := eng.History(); len(h) != 0 {
		t.Errorf("%s: History holds %d records, want none", name, len(h))
	}
	for a := 0; a < eng.NumAlgorithms(); a++ {
		if n := len(eng.ValuesOf(a)); n > 2*core.DefaultValuesTail {
			t.Errorf("%s: ValuesOf(%d) holds %d values, want at most %d", name, a, n, 2*core.DefaultValuesTail)
		}
	}
}

// TestServiceEnginesKeepNoPerTrialLog runs 20,000 trials through each
// engine the server builds — a spec-built tenant engine and a
// contextual engine, both durable — and checks that neither keeps a
// per-trial log: memory must stop growing with the trials served.
func TestServiceEnginesKeepNoPerTrialLog(t *testing.T) {
	const trials, batch = 20000, 50
	algos := []core.Algorithm{
		{Name: "a"},
		{Name: "b"},
		{Name: "c", Space: param.NewSpace(param.NewRatio("x", 1, 2))},
	}
	cost := func(algo, i int) float64 { return float64(1+algo) + float64(i%7)/10 }

	run := func(t *testing.T, step func(i int), engines func() map[string]*core.Tuner) {
		var mid uint64
		for i := 0; i < trials; i += batch {
			if i == trials/2 {
				mid = liveHeap()
			}
			step(i)
		}
		end := liveHeap()
		t.Logf("live heap %d bytes at trial %d, %d at trial %d", mid, trials/2, end, trials)
		for name, eng := range engines() {
			checkNoPerTrialLog(t, name, eng)
		}
		if end > mid && end-mid >= liveHeapGrowthBound {
			t.Errorf("live heap grew %d bytes over trials %d..%d, bound %d", end-mid, trials/2, trials, liveHeapGrowthBound)
		}
	}

	t.Run("spec", func(t *testing.T) {
		eng, err := core.EngineSpec{}.Build(algos, nominal.NewEpsilonGreedy(0.1), nil, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		results := make([]core.TrialResult, 0, batch)
		run(t, func(i int) {
			leases, err := eng.LeaseN(batch)
			if err != nil || len(leases) != batch {
				t.Fatalf("LeaseN(%d): %v (%d leases)", batch, err, len(leases))
			}
			results = results[:0]
			for _, l := range leases {
				results = append(results, core.TrialResult{ID: l.ID, Value: cost(l.Algo, i)})
			}
			for _, err := range eng.CompleteN(results) {
				if err != nil {
					t.Fatal(err)
				}
			}
		}, func() map[string]*core.Tuner {
			return map[string]*core.Tuner{"spec": eng}
		})
		if got := eng.Iterations(); got != trials {
			t.Fatalf("engine completed %d trials, want %d", got, trials)
		}
	})

	t.Run("ctxtune", func(t *testing.T) {
		e, err := New(Config{
			Algos:       algos,
			Selector:    func() nominal.Selector { return nominal.NewEpsilonGreedy(0.1) },
			Seed:        3,
			Partitioner: NewTree(1, 32, 1.5),
			Dir:         t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		results := make([]core.TrialResult, 0, batch)
		run(t, func(i int) {
			f := cheapF
			if (i/batch)%2 == 1 {
				f = dearF
			}
			leases, err := e.LeaseNFor(f, batch)
			if err != nil || len(leases) != batch {
				t.Fatalf("LeaseNFor(%d): %v (%d leases)", batch, err, len(leases))
			}
			results = results[:0]
			for _, l := range leases {
				results = append(results, core.TrialResult{ID: l.ID, Value: classCost(f, l.Algo%2) + float64(l.Algo)})
			}
			for _, err := range e.CompleteN(results) {
				if err != nil {
					t.Fatal(err)
				}
			}
		}, func() map[string]*core.Tuner {
			engines := map[string]*core.Tuner{"global": e.global}
			for _, r := range e.snapshotReplicas() {
				engines["context "+r.id] = r.eng
			}
			return engines
		})
		if e.ContextCount() < 2 {
			t.Fatalf("engine learned %d contexts, want the two feature classes split", e.ContextCount())
		}
	})
}
