package core

import (
	"math"
	"testing"

	"repro/internal/param"
	"repro/internal/search"
)

func TestOfflineTuneFindsGlobalOptimum(t *testing.T) {
	algos, m := syntheticAlgos()
	algo, cfg, val, err := OfflineTune(algos, 120, search.NewByNameMust("nelder-mead"), m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if algo != 1 {
		t.Fatalf("offline best algorithm %d, want 1", algo)
	}
	if val > 5.2 {
		t.Errorf("offline best value %g (config %v), want near 5", val, cfg)
	}
}

func TestOfflineTuneExhaustiveOnSmallDiscrete(t *testing.T) {
	algos := []Algorithm{
		{Name: "flat"},
		{
			Name:  "grid",
			Space: param.NewSpace(param.NewRatioInt("k", 0, 9)),
		},
	}
	m := func(algo int, cfg param.Config) float64 {
		if algo == 0 {
			return 5
		}
		d := cfg[0] - 7
		return 1 + d*d
	}
	// Budget 10 covers the 10-point grid: exhaustive search must find the
	// exact optimum k = 7.
	algo, cfg, val, err := OfflineTune(algos, 10, nil, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if algo != 1 || cfg[0] != 7 || val != 1 {
		t.Errorf("offline exhaustive: algo=%d cfg=%v val=%g, want (1, [7], 1)", algo, cfg, val)
	}
}

func TestOfflineTuneValidation(t *testing.T) {
	if _, _, _, err := OfflineTune(nil, 10, nil, nil, 1); err == nil {
		t.Error("no algorithms did not error")
	}
	// Budget < 1 clamps rather than failing.
	algos := []Algorithm{{Name: "a"}}
	m := func(int, param.Config) float64 { return 1 }
	algo, _, val, err := OfflineTune(algos, 0, nil, m, 1)
	if err != nil || algo != 0 || val != 1 {
		t.Errorf("clamped budget run: %d %g %v", algo, val, err)
	}
}

func TestOfflineTuneFallbackStrategy(t *testing.T) {
	// An ordinal space is unsupported by Nelder-Mead; OfflineTune must
	// fall back (hill climbing) rather than fail.
	algos := []Algorithm{{
		Name:  "ordinal",
		Space: param.NewSpace(param.NewOrdinal("s", "a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l")),
	}}
	m := func(_ int, cfg param.Config) float64 { return math.Abs(cfg[0] - 7) }
	algo, cfg, val, err := OfflineTune(algos, 200, DefaultFactory, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if algo != 0 || val != 0 || cfg[0] != 7 {
		t.Errorf("ordinal fallback: %d %v %g", algo, cfg, val)
	}
}
