package core

import (
	"slices"
	"testing"

	"repro/internal/nominal"
	"repro/internal/search"
)

// TestResumeExactEveryStrategy is TestCheckpointResumeMatchesUninterrupted
// for every phase-one strategy: a run killed with a trial in flight at
// each kill point and resumed from its directory must make the decisions
// of an uninterrupted run — the same best, the same per-algorithm counts
// and the same history tail. Strategies that draw random numbers in
// Propose need the replay to re-propose what they proposed live.
func TestResumeExactEveryStrategy(t *testing.T) {
	const iters, seed, every = 300, 3, 20
	for _, name := range search.Names() {
		t.Run(name, func(t *testing.T) {
			factory, err := search.NewByName(name, 5)
			if err != nil {
				t.Fatal(err)
			}
			algos, m := syntheticAlgos()
			build := func(opts ...Option) *Tuner {
				tu, err := NewTuner(algos, nominal.NewEpsilonGreedy(0.2), factory, seed, opts...)
				if err != nil {
					t.Fatal(err)
				}
				return tu
			}
			ref := build()
			ref.Run(iters, m)

			dir := t.TempDir()
			tu := build(WithCheckpoint(dir, every))
			for _, kill := range []int{1, 17, 20, 59, 155, 156, 299} {
				for tu.Iterations() < kill {
					tu.Step(m)
				}
				tu.Next() // in-flight proposal dies with the process
				tu = build(WithCheckpoint(dir, every))
				if got := tu.Iterations(); got != kill {
					t.Fatalf("resume after kill at %d recovered %d iterations", kill, got)
				}
			}
			for tu.Iterations() < iters {
				tu.Step(m)
			}
			best, cfg, val := tu.Best()
			refBest, refCfg, refVal := ref.Best()
			if best != refBest || !cfg.Equal(refCfg) || val != refVal {
				t.Errorf("best %d %v %g, uninterrupted %d %v %g", best, cfg, val, refBest, refCfg, refVal)
			}
			if c, rc := tu.Counts(), ref.Counts(); !slices.Equal(c, rc) {
				t.Errorf("counts %v, uninterrupted %v", c, rc)
			}
			h, rh := tu.History(), ref.History()
			h, rh = h[len(h)-stateHistoryTail:], rh[len(rh)-stateHistoryTail:]
			for i := range h {
				if h[i].Iteration != rh[i].Iteration || h[i].Algo != rh[i].Algo || !h[i].Config.Equal(rh[i].Config) || h[i].Value != rh[i].Value {
					t.Fatalf("history record %d: %+v, uninterrupted %+v", h[i].Iteration, h[i], rh[i])
				}
			}
		})
	}
}
