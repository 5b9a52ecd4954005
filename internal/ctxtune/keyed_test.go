package ctxtune

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/nominal"
	"repro/internal/param"
)

// keyedModel: two contexts with opposite winners. Algorithm 0 costs 5 in
// context "small" but 20 in "large"; algorithm 1 the reverse.
func keyedModel() ([]core.Algorithm, func(context string) core.Measure) {
	algos := []core.Algorithm{{Name: "a"}, {Name: "b"}}
	m := func(context string) core.Measure {
		return func(algo int, _ param.Config) float64 {
			if (context == "small") == (algo == 0) {
				return 5
			}
			return 20
		}
	}
	return algos, m
}

func TestKeyedLearnsPerContext(t *testing.T) {
	algos, model := keyedModel()
	c := NewKeyed(algos, func() nominal.Selector { return nominal.NewEpsilonGreedy(0.1) }, nil, 1)
	// Interleave contexts, as a real input stream would.
	for i := 0; i < 200; i++ {
		ctx := "small"
		if i%2 == 1 {
			ctx = "large"
		}
		if _, err := c.Step(ctx, model(ctx)); err != nil {
			t.Fatal(err)
		}
	}
	small, err := c.For("small")
	if err != nil {
		t.Fatal(err)
	}
	large, err := c.For("large")
	if err != nil {
		t.Fatal(err)
	}
	if best, _, _ := small.Best(); best != 0 {
		t.Errorf("small-context winner %d, want 0", best)
	}
	if best, _, _ := large.Best(); best != 1 {
		t.Errorf("large-context winner %d, want 1", best)
	}
	// Each context's counts concentrate on its own winner.
	if counts := small.Counts(); counts[0] <= counts[1] {
		t.Errorf("small-context counts %v not concentrated on algorithm 0", counts)
	}
	if counts := large.Counts(); counts[1] <= counts[0] {
		t.Errorf("large-context counts %v not concentrated on algorithm 1", counts)
	}
	if got := c.Contexts(); len(got) != 2 || got[0] != "large" || got[1] != "small" {
		t.Errorf("Contexts = %v", got)
	}
}

func TestKeyedBeatsGlobalUnderAlternation(t *testing.T) {
	// A single global tuner on an alternating stream can at best commit
	// to one algorithm (mean cost ≥ 12.5 = (5+20)/2); the keyed family
	// converges to ~5 in each context.
	algos, model := keyedModel()

	global, err := core.NewTuner(algos, nominal.NewEpsilonGreedy(0.1), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctxOf := func(i int) string {
		if i%2 == 1 {
			return "large"
		}
		return "small"
	}
	globalTotal := 0.0
	for i := 0; i < 300; i++ {
		globalTotal += global.Step(model(ctxOf(i))).Value
	}

	c := NewKeyed(algos, func() nominal.Selector { return nominal.NewEpsilonGreedy(0.1) }, nil, 1)
	ctxTotal := 0.0
	for i := 0; i < 300; i++ {
		rec, err := c.Step(ctxOf(i), model(ctxOf(i)))
		if err != nil {
			t.Fatal(err)
		}
		ctxTotal += rec.Value
	}
	if !(ctxTotal < globalTotal*0.75) {
		t.Errorf("keyed total %g not clearly below global %g", ctxTotal, globalTotal)
	}
}

func TestKeyedDeterministicAcrossArrivalOrder(t *testing.T) {
	algos, model := keyedModel()
	run := func(order []string) []int {
		c := NewKeyed(algos, func() nominal.Selector { return nominal.NewEpsilonGreedy(0.1) }, nil, 9)
		for _, ctx := range order {
			for i := 0; i < 30; i++ {
				if _, err := c.Step(ctx, model(ctx)); err != nil {
					t.Fatal(err)
				}
			}
		}
		small, _ := c.For("small")
		return small.Counts()
	}
	a := run([]string{"small", "large"})
	b := run([]string{"large", "small"})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("context arrival order changed results: %v vs %v", a, b)
		}
	}
}

func TestKeyedConcurrentFor(t *testing.T) {
	algos, _ := keyedModel()
	c := NewKeyed(algos, func() nominal.Selector { return nominal.NewRoundRobin() }, nil, 4)
	var wg sync.WaitGroup
	tuners := make([]*core.Tuner, 16)
	for g := range tuners {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			t, err := c.For("shared")
			if err == nil {
				tuners[g] = t
			}
		}(g)
	}
	wg.Wait()
	for _, tu := range tuners {
		if tu == nil || tu != tuners[0] {
			t.Fatal("concurrent For returned distinct tuners for one context")
		}
	}
}

func TestKeyedPropagatesConstructionError(t *testing.T) {
	c := NewKeyed(nil, func() nominal.Selector { return nominal.NewRoundRobin() }, nil, 1)
	if _, err := c.For("x"); err == nil {
		t.Error("empty algorithm set did not error")
	}
}
