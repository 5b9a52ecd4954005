package core

import (
	"sort"

	"repro/internal/param"
)

// The paper's §II-A requirements on the tuned operation include that "its
// performance should only depend on the current configuration, as
// approximative search techniques tend to be vulnerable to measurement
// noise". Real measurements rarely oblige; the decorators here trade
// extra evaluations for noise suppression before samples reach the two
// tuning phases.

// MedianOfK wraps a measurement function so each observation is the
// median of k runs: the true middle sample for odd k, the mean of the two
// middle samples for even k. The decorator multiplies the cost of every
// tuning iteration by k, so it only pays off when the noise is comparable
// to the differences the tuner must resolve (ablation A8 quantifies the
// trade).
func MedianOfK(m Measure, k int) Measure {
	if k < 1 {
		k = 1
	}
	if k == 1 {
		return m
	}
	return func(algo int, cfg param.Config) float64 {
		vals := make([]float64, k)
		for i := range vals {
			vals[i] = m(algo, cfg)
		}
		sort.Float64s(vals)
		if k%2 == 0 {
			return (vals[k/2-1] + vals[k/2]) / 2
		}
		return vals[k/2]
	}
}
