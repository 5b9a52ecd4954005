package core

import (
	"math"
	"testing"

	"repro/internal/nominal"
	"repro/internal/param"
	"repro/internal/search"
)

// syntheticAlgos models three algorithms: one untunable and fast, one
// tunable that starts slow but can tune below the fast one, one untunable
// and slow. The measurement is deterministic.
func syntheticAlgos() ([]Algorithm, Measure) {
	algos := []Algorithm{
		{Name: "fast-fixed"}, // no parameters, constant 10
		{
			Name: "tunable",
			Space: param.NewSpace(
				param.NewInterval("x", 0, 10),
				param.NewInterval("y", 0, 10),
			),
			Init: param.Config{0, 0},
		}, // min 5 at (7, 3)
		{Name: "slow-fixed"}, // no parameters, constant 40
	}
	m := func(algo int, cfg param.Config) float64 {
		switch algo {
		case 0:
			return 10
		case 1:
			dx, dy := cfg[0]-7, cfg[1]-3
			return 5 + dx*dx + dy*dy
		default:
			return 40
		}
	}
	return algos, m
}

func mustNew(t *testing.T, algos []Algorithm, sel nominal.Selector, f search.Factory, seed int64, opts ...Option) *Tuner {
	t.Helper()
	tu, err := NewTuner(algos, sel, f, seed, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return tu
}

func TestTunerFindsGlobalOptimum(t *testing.T) {
	algos, m := syntheticAlgos()
	tu := mustNew(t, algos, nominal.NewEpsilonGreedy(0.2), DefaultFactory, 1)
	tu.Run(400, m)
	algo, cfg, val := tu.Best()
	if algo != 1 {
		t.Fatalf("best algorithm %d (%s), want 1 (tunable)", algo, tu.AlgorithmName(algo))
	}
	if val > 5.6 {
		t.Errorf("best value %g, want ≤ 5.6 (optimum 5 at (7,3)), config %v", val, cfg)
	}
}

func TestTunerWithEveryPaperSelector(t *testing.T) {
	for _, sel := range nominal.PaperSet() {
		sel := sel
		t.Run(sel.Name(), func(t *testing.T) {
			algos, m := syntheticAlgos()
			tu := mustNew(t, algos, sel, DefaultFactory, 7)
			tu.Run(600, m)
			_, _, val := tu.Best()
			// Every strategy must at least locate a configuration no worse
			// than the untuned fast algorithm.
			if val > 10 {
				t.Errorf("%s best %g, want ≤ 10", sel.Name(), val)
			}
			// All algorithms must have been tried (no starvation).
			for i, c := range tu.Counts() {
				if c == 0 {
					t.Errorf("%s never selected algorithm %d", sel.Name(), i)
				}
			}
		})
	}
}

func TestTunerPerAlgorithmTuningProgress(t *testing.T) {
	// The tunable algorithm's own strategy must improve its incumbent even
	// while the selector switches around — the "tuning progress on all
	// algorithms more or less simultaneously" property.
	algos, m := syntheticAlgos()
	tu := mustNew(t, algos, nominal.NewUniformRandom(), DefaultFactory, 3)
	tu.Run(300, m)
	cfg, val := tu.BestConfigOf(1)
	if cfg == nil || val > 6 {
		t.Errorf("tunable algorithm incumbent %v = %g, want ≤ 6", cfg, val)
	}
	vals := tu.ValuesOf(1)
	if len(vals) < 50 {
		t.Fatalf("tunable algorithm only ran %d times under uniform selection", len(vals))
	}
	if vals[0] <= val {
		t.Errorf("no tuning progress: first %g, best %g", vals[0], val)
	}
}

func TestTunerHistoryAndCounts(t *testing.T) {
	algos, m := syntheticAlgos()
	tu := mustNew(t, algos, nominal.NewRoundRobin(), DefaultFactory, 1)
	tu.Run(9, m)
	h := tu.History()
	if len(h) != 9 {
		t.Fatalf("history has %d records, want 9", len(h))
	}
	for i, r := range h {
		if r.Iteration != i {
			t.Errorf("record %d has iteration %d", i, r.Iteration)
		}
		if r.Algo != i%3 {
			t.Errorf("round-robin record %d ran algo %d, want %d", i, r.Algo, i%3)
		}
		if r.Value != m(r.Algo, r.Config) {
			t.Errorf("record %d value mismatch", i)
		}
	}
	counts := tu.Counts()
	for i, c := range counts {
		if c != 3 {
			t.Errorf("algo %d count %d, want 3", i, c)
		}
	}
	if tu.Iterations() != 9 {
		t.Errorf("Iterations = %d, want 9", tu.Iterations())
	}
}

func TestTunerWithoutHistory(t *testing.T) {
	algos, m := syntheticAlgos()
	tu := mustNew(t, algos, nominal.NewRoundRobin(), DefaultFactory, 1, WithoutHistory())
	tu.Run(30, m)
	if len(tu.History()) != 0 {
		t.Errorf("WithoutHistory still recorded %d records", len(tu.History()))
	}
	if tu.Iterations() != 30 {
		t.Errorf("Iterations = %d, want 30", tu.Iterations())
	}
	if _, _, val := tu.Best(); math.IsInf(val, 1) {
		t.Error("incumbent not tracked without history")
	}
}

func TestTunerAskTellMisusePanics(t *testing.T) {
	algos, _ := syntheticAlgos()
	tu := mustNew(t, algos, nominal.NewRoundRobin(), DefaultFactory, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Observe without Next did not panic")
			}
		}()
		tu.Observe(1)
	}()
	tu.Next()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double Next did not panic")
			}
		}()
		tu.Next()
	}()
}

func TestTunerValidation(t *testing.T) {
	if _, err := NewTuner(nil, nominal.NewRoundRobin(), DefaultFactory, 1); err == nil {
		t.Error("New with no algorithms did not fail")
	}
	if _, err := NewTuner([]Algorithm{{Name: "a"}}, nil, DefaultFactory, 1); err == nil {
		t.Error("New with nil selector did not fail")
	}
}

func TestTunerNilFactoryUsesDefault(t *testing.T) {
	algos, m := syntheticAlgos()
	tu, err := NewTuner(algos, nominal.NewEpsilonGreedy(0.1), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	tu.Run(50, m)
	if tu.Iterations() != 50 {
		t.Error("tuner with nil factory did not run")
	}
}

func TestTunerBestBeforeRun(t *testing.T) {
	algos, _ := syntheticAlgos()
	tu := mustNew(t, algos, nominal.NewRoundRobin(), DefaultFactory, 1)
	algo, cfg, val := tu.Best()
	if algo != -1 || cfg != nil || !math.IsInf(val, 1) {
		t.Errorf("Best before run = (%d, %v, %g)", algo, cfg, val)
	}
}

func TestTunerDeterminism(t *testing.T) {
	run := func() []Record {
		algos, m := syntheticAlgos()
		tu := mustNew(t, algos, nominal.NewEpsilonGreedy(0.1), DefaultFactory, 99)
		tu.Run(100, m)
		return tu.History()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i].Algo != b[i].Algo || a[i].Value != b[i].Value || !a[i].Config.Equal(b[i].Config) {
			t.Fatalf("iteration %d differs between identical runs", i)
		}
	}
}

func TestDefaultStrategyFor(t *testing.T) {
	cases := []struct {
		space *param.Space
		want  string
	}{
		{param.NewSpace(), "fixed"},
		{param.NewSpace(param.NewInterval("x", 0, 1)), "nelder-mead"},
		{param.NewSpace(param.NewOrdinal("s", "a", "b")), "hillclimb"},
		{param.NewSpace(param.NewNominal("n", "a", "b")), "genetic"},
	}
	for _, c := range cases {
		s := DefaultStrategyFor(c.space, 1)
		if s.Name() != c.want {
			t.Errorf("DefaultStrategyFor(%d dims) = %q, want %q", c.space.Dim(), s.Name(), c.want)
		}
		if !s.Supports(c.space) {
			t.Errorf("chosen strategy %q does not support its space", s.Name())
		}
	}
}

func TestTunerFallbackForUnsupportedSpace(t *testing.T) {
	// An ordinal space is unsupported by Nelder-Mead; New must fall back
	// rather than fail.
	algos := []Algorithm{{
		Name:  "ordinal-algo",
		Space: param.NewSpace(param.NewOrdinal("size", "s", "m", "l")),
	}}
	tu, err := NewTuner(algos, nominal.NewEpsilonGreedy(0.1), DefaultFactory, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := tu.Strategy(0).Name(); got != "hillclimb" {
		t.Errorf("fallback strategy %q, want hillclimb", got)
	}
	m := func(_ int, cfg param.Config) float64 { return math.Abs(cfg[0] - 1) }
	tu.Run(20, m)
	_, _, v := tu.Best()
	if v != 0 {
		t.Errorf("best %g, want 0 at the middle ordinal", v)
	}
}

func TestTunerHandCraftedInit(t *testing.T) {
	// The first proposal for an algorithm must be its Init configuration
	// (the raytracing case study's hand-crafted start).
	algos := []Algorithm{{
		Name:  "a",
		Space: param.NewSpace(param.NewInterval("x", 0, 10)),
		Init:  param.Config{4},
	}}
	tu := mustNew(t, algos, nominal.NewRoundRobin(), DefaultFactory, 1)
	_, cfg := tu.Next()
	if cfg[0] != 4 {
		t.Errorf("first proposal %v, want the hand-crafted init (4)", cfg)
	}
	tu.Observe(1)
}

func TestTunerStepRecord(t *testing.T) {
	algos, m := syntheticAlgos()
	tu := mustNew(t, algos, nominal.NewRoundRobin(), DefaultFactory, 1)
	r := tu.Step(m)
	if r.Iteration != 0 || r.Algo != 0 || r.Value != 10 {
		t.Errorf("first step record = %+v", r)
	}
}

func TestTunerAccessors(t *testing.T) {
	algos, _ := syntheticAlgos()
	tu := mustNew(t, algos, nominal.NewEpsilonGreedy(0.1), DefaultFactory, 1)
	if tu.NumAlgorithms() != 3 {
		t.Errorf("NumAlgorithms = %d", tu.NumAlgorithms())
	}
	if tu.AlgorithmName(1) != "tunable" {
		t.Errorf("AlgorithmName(1) = %q", tu.AlgorithmName(1))
	}
	if tu.Selector().Name() != "egreedy(10%)" {
		t.Errorf("Selector().Name() = %q", tu.Selector().Name())
	}
	// Nelder-Mead itself supports the empty space, so no fallback happens.
	if tu.Strategy(0).Name() != "nelder-mead" {
		t.Errorf("Strategy(0) = %q, want nelder-mead", tu.Strategy(0).Name())
	}
}

// Crossover scenario (the paper's Section IV-C threat to validity): an
// algorithm that starts slower but tunes to a better optimum. The
// Gradient-Weighted strategy is designed to keep selecting the improving
// algorithm; verify it reaches the better post-tuning optimum.
func TestCrossoverScenarioGradientWeighted(t *testing.T) {
	algos := []Algorithm{
		{Name: "static"}, // constant 8
		{
			Name:  "improves-past",
			Space: param.NewSpace(param.NewInterval("x", 0, 10)),
			Init:  param.Config{0},
		}, // starts at 20, optimum 4 at x=8 — crosses below static
	}
	m := func(algo int, cfg param.Config) float64 {
		if algo == 0 {
			return 8
		}
		d := cfg[0] - 8
		return 4 + d*d/4
	}
	tu := mustNew(t, algos, nominal.NewGradientWeighted(), DefaultFactory, 11)
	tu.Run(500, m)
	best, _, val := tu.Best()
	if best != 1 || val > 4.5 {
		t.Errorf("crossover: best algo %d value %g, want algo 1 near 4", best, val)
	}
}
