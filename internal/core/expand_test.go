package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/nominal"
	"repro/internal/param"
)

// nominalAlgos is an algorithm set where one algorithm carries a nominal
// parameter of its own (a storage "layout") alongside a numeric one.
func nominalAlgos() []Algorithm {
	return []Algorithm{
		{Name: "plain"},
		{
			Name: "layouts",
			Space: param.NewSpace(
				param.NewNominal("layout", "rowmajor", "colmajor", "tiled"),
				param.NewInterval("x", 0, 10),
			),
			Init: param.Config{0, 0},
		},
	}
}

// nominalMeasure: "plain" is constant 10; "layouts" depends on the layout
// (tiled is the best branch) and on x (optimum at 8).
func nominalMeasure(algo int, cfg param.Config) float64 {
	if algo == 0 {
		return 10
	}
	base := []float64{9, 7, 3}[int(cfg[0])]
	d := cfg[1] - 8
	return base + d*d/8
}

func TestExpandNominalStructure(t *testing.T) {
	e, err := ExpandNominal(nominalAlgos())
	if err != nil {
		t.Fatal(err)
	}
	// 1 passthrough + 3 layout variants.
	if len(e.Algos) != 4 {
		t.Fatalf("expanded into %d algorithms, want 4", len(e.Algos))
	}
	if e.Algos[0].Name != "plain" || e.Original(0) != 0 {
		t.Errorf("passthrough algorithm mangled: %+v", e.Algos[0])
	}
	wantNames := []string{"layouts[layout=rowmajor]", "layouts[layout=colmajor]", "layouts[layout=tiled]"}
	for i, want := range wantNames {
		got := e.Algos[i+1]
		if got.Name != want {
			t.Errorf("derived algorithm %d name %q, want %q", i, got.Name, want)
		}
		if e.Original(i+1) != 1 {
			t.Errorf("derived algorithm %d original = %d", i, e.Original(i+1))
		}
		if got.Space.Dim() != 1 || got.Space.HasNominal() {
			t.Errorf("residual space wrong: dim=%d nominal=%v", got.Space.Dim(), got.Space.HasNominal())
		}
		if len(got.Init) != 1 || got.Init[0] != 0 {
			t.Errorf("residual init wrong: %v", got.Init)
		}
	}
}

func TestExpandNominalFullConfig(t *testing.T) {
	e, err := ExpandNominal(nominalAlgos())
	if err != nil {
		t.Fatal(err)
	}
	full := e.FullConfig(3, param.Config{5.5}) // layouts[layout=tiled]
	if len(full) != 2 || full[0] != 2 || full[1] != 5.5 {
		t.Errorf("FullConfig = %v, want [2 5.5]", full)
	}
	// Passthrough keeps the reduced config as is (copy, not alias).
	reduced := param.Config{}
	if got := e.FullConfig(0, reduced); len(got) != 0 {
		t.Errorf("passthrough FullConfig = %v", got)
	}
}

func TestExpandedTunerFindsNominalBranch(t *testing.T) {
	e, err := ExpandNominal(nominalAlgos())
	if err != nil {
		t.Fatal(err)
	}
	tuner, err := NewTuner(e.Algos, nominal.NewEpsilonGreedy(0.2), DefaultFactory, 3)
	if err != nil {
		t.Fatal(err)
	}
	tuner.Run(600, e.Measure(nominalMeasure))
	algo, cfg, val := e.BestOriginal(tuner)
	if algo != 1 {
		t.Fatalf("best original algorithm %d, want 1 (layouts)", algo)
	}
	if int(cfg[0]) != 2 {
		t.Errorf("best layout index %v, want 2 (tiled)", cfg[0])
	}
	if val > 3.6 {
		t.Errorf("best value %g, want ≤ 3.6 (optimum 3)", val)
	}
	if math.Abs(cfg[1]-8) > 1.5 {
		t.Errorf("numeric parameter %g, want near 8", cfg[1])
	}
}

func TestExpandNominalMultipleNominals(t *testing.T) {
	algos := []Algorithm{{
		Name: "multi",
		Space: param.NewSpace(
			param.NewNominal("a", "x", "y"),
			param.NewNominal("b", "p", "q", "r"),
			param.NewRatioInt("n", 1, 4),
		),
	}}
	e, err := ExpandNominal(algos)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Algos) != 6 {
		t.Fatalf("2×3 nominal cross-product expanded into %d, want 6", len(e.Algos))
	}
	seen := map[string]bool{}
	for i, a := range e.Algos {
		if seen[a.Name] {
			t.Errorf("duplicate derived name %q", a.Name)
		}
		seen[a.Name] = true
		full := e.FullConfig(i, param.Config{2})
		if full[2] != 2 {
			t.Errorf("metric dim lost: %v", full)
		}
		if !strings.Contains(a.Name, "a=") || !strings.Contains(a.Name, "b=") {
			t.Errorf("derived name %q missing nominal assignments", a.Name)
		}
	}
}

func TestExpandNominalTooLarge(t *testing.T) {
	labels := make([]string, 30)
	for i := range labels {
		labels[i] = strings.Repeat("x", i+1)
	}
	algos := []Algorithm{{
		Name: "huge",
		Space: param.NewSpace(
			param.NewNominal("a", labels...),
			param.NewNominal("b", labels...),
		),
	}}
	if _, err := ExpandNominal(algos); err == nil {
		t.Error("900-way expansion did not error")
	}
}

func TestExpandNominalBestBeforeRun(t *testing.T) {
	e, err := ExpandNominal(nominalAlgos())
	if err != nil {
		t.Fatal(err)
	}
	tuner, err := NewTuner(e.Algos, nominal.NewRoundRobin(), DefaultFactory, 1)
	if err != nil {
		t.Fatal(err)
	}
	algo, cfg, val := e.BestOriginal(tuner)
	if algo != -1 || cfg != nil || !math.IsInf(val, 1) {
		t.Errorf("BestOriginal before run = (%d, %v, %g)", algo, cfg, val)
	}
}
