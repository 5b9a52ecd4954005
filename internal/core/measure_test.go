package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nominal"
	"repro/internal/param"
)

func TestMedianOfK(t *testing.T) {
	seq := []float64{10, 1000, 10, 10, 9} // one huge outlier
	i := 0
	m := func(int, param.Config) float64 {
		v := seq[i%len(seq)]
		i++
		return v
	}
	med := MedianOfK(m, 5)
	if got := med(0, nil); got != 10 {
		t.Errorf("median of %v = %g, want 10", seq, got)
	}
	if i != 5 {
		t.Errorf("k=5 should consume 5 measurements, consumed %d", i)
	}
	// Even k averages the two middle samples instead of returning the
	// upper one.
	evens := []float64{1, 2, 10, 100}
	i = 0
	mEven := func(int, param.Config) float64 {
		v := evens[i%len(evens)]
		i++
		return v
	}
	if got := MedianOfK(mEven, 4)(0, nil); got != 6 {
		t.Errorf("median of %v = %g, want (2+10)/2 = 6", evens, got)
	}
	if i != 4 {
		t.Errorf("k=4 should consume 4 measurements, consumed %d", i)
	}
	i = 0
	if got := MedianOfK(mEven, 2)(0, nil); got != 1.5 {
		t.Errorf("median of first two = %g, want 1.5", got)
	}
	// k ≤ 1 is the identity (no extra evaluations).
	i = 0
	id := MedianOfK(m, 1)
	id(0, nil)
	if i != 1 {
		t.Errorf("k=1 consumed %d measurements", i)
	}
	i = 0
	MedianOfK(m, 0)(0, nil)
	if i != 1 {
		t.Errorf("k=0 should clamp to identity")
	}
}

func TestMedianOfKImprovesTuningUnderNoise(t *testing.T) {
	// A noisy quadratic: Nelder-Mead inside the tuner should land closer
	// to the optimum when each observation is a median-of-5.
	run := func(m Measure, seed int64) float64 {
		algos := []Algorithm{{
			Name:  "noisy",
			Space: param.NewSpace(param.NewInterval("x", 0, 10)),
			Init:  param.Config{0},
		}}
		tu, err := NewTuner(algos, nominal.NewRoundRobin(), DefaultFactory, seed)
		if err != nil {
			t.Fatal(err)
		}
		tu.Run(120, m)
		// Judge by the TRUE cost of the final incumbent configuration,
		// not the (noisy) observed best value.
		_, cfg, _ := tu.Best()
		d := cfg[0] - 7
		return 3 + d*d
	}
	sumRaw, sumMed := 0.0, 0.0
	const trials = 6
	for seed := int64(0); seed < trials; seed++ {
		r1 := rand.New(rand.NewSource(seed*2 + 1))
		noisy1 := func(_ int, cfg param.Config) float64 {
			d := cfg[0] - 7
			v := 3 + d*d
			return v * (1 + 0.4*r1.NormFloat64())
		}
		r2 := rand.New(rand.NewSource(seed*2 + 1))
		noisy2 := func(_ int, cfg param.Config) float64 {
			d := cfg[0] - 7
			v := 3 + d*d
			return v * (1 + 0.4*r2.NormFloat64())
		}
		sumRaw += run(noisy1, seed)
		sumMed += run(MedianOfK(noisy2, 5), seed)
	}
	if !(sumMed < sumRaw) {
		t.Errorf("median-of-5 true cost %.3f not better than raw %.3f under 40%% noise",
			sumMed/trials, sumRaw/trials)
	}
	if math.IsNaN(sumMed) || math.IsNaN(sumRaw) {
		t.Fatal("NaN costs")
	}
}
