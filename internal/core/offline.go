package core

import (
	"fmt"
	"math"

	"repro/internal/param"
	"repro/internal/search"
)

// OfflineTune applies the paper's two-phase formulation literally, in its
// original order, for offline scenarios (e.g. an installation-time tuning
// step): phase one first determines C_opt,A = argmin m_A(C) for every
// algorithm with its own search-strategy instance and a fixed evaluation
// budget, then phase two picks the global optimum among the per-algorithm
// optima. The paper observes the online/offline difference is "mostly a
// technical one" — offline tuning has no real-time constraint, so it can
// afford a fixed per-algorithm budget instead of a selection strategy.
//
// Algorithms with fully discrete spaces small enough to enumerate within
// the budget are searched exhaustively (optimal, as §II-B notes, when
// exploration cost is irrelevant); the others use the factory's strategy.
func OfflineTune(algos []Algorithm, budgetPerAlgo int, factory search.Factory, m Measure, seed int64) (algo int, cfg param.Config, value float64, err error) {
	if len(algos) == 0 {
		return -1, nil, math.Inf(1), fmt.Errorf("core: no algorithms to tune")
	}
	if budgetPerAlgo < 1 {
		budgetPerAlgo = 1
	}
	if factory == nil {
		factory = DefaultFactory
	}
	bestAlgo, bestVal := -1, math.Inf(1)
	var bestCfg param.Config
	for ai, a := range algos {
		sp := a.space()
		var s search.Strategy
		if card := sp.Cardinality(); card > 0 && card <= budgetPerAlgo {
			s = search.NewExhaustive()
		} else {
			s = factory()
			if !s.Supports(sp) {
				s = DefaultStrategyFor(sp, seed+int64(ai))
			}
		}
		if err := s.Start(sp, a.Init); err != nil {
			return -1, nil, math.Inf(1), fmt.Errorf("core: algorithm %q: %w", a.Name, err)
		}
		for i := 0; i < budgetPerAlgo && !(i > 0 && s.Converged()); i++ {
			c := s.Propose()
			s.Report(c, m(ai, c))
		}
		if c, v := s.Best(); v < bestVal {
			bestAlgo, bestCfg, bestVal = ai, c, v
		}
	}
	return bestAlgo, bestCfg, bestVal, nil
}
