package exp

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/nominal"
	"repro/internal/param"
	"repro/internal/report"
	"repro/internal/search"
	"repro/internal/stats"
)

// The ablations probe the design choices the paper fixes by fiat (window
// size 16, ε ∈ {5,10,20}%, Nelder-Mead as the phase-one strategy) and the
// threats to validity it discusses (§IV-C: crossover profiles, soft-max
// starvation). They run on a deterministic synthetic cost model rather
// than wall-clock measurements so they are exact, fast, and reproducible:
// the selector dynamics under study do not depend on where the numbers
// come from.

// synthAlgo is one synthetic tunable algorithm: a paraboloid cost surface
// over a 2-D space with a per-algorithm floor and optimum location.
type synthAlgo struct {
	name  string
	floor float64 // best achievable cost
	optX  float64 // optimum location (both dimensions)
	curve float64 // curvature (how hard the optimum is to reach)
}

func (a synthAlgo) cost(c param.Config) float64 {
	dx, dy := c[0]-a.optX, c[1]-a.optX
	return a.floor + a.curve*(dx*dx+dy*dy)
}

func synthSpace() *param.Space {
	return param.NewSpace(
		param.NewInterval("x", 0, 10),
		param.NewInterval("y", 0, 10),
	)
}

// synthSet is a bandit with distinct floors and tuning difficulty:
// algorithm "tunable-best" must be tuned to win over "static-good".
var synthSet = []synthAlgo{
	{name: "static-good", floor: 8, optX: 5, curve: 0},    // flat: always 8
	{name: "tunable-best", floor: 4, optX: 7, curve: 0.4}, // starts ~23.6, tunes to 4
	{name: "tunable-mid", floor: 7, optX: 3, curve: 0.25}, // tunes to 7
	{name: "static-bad", floor: 30, optX: 5, curve: 0},    // flat: always 30
}

func synthAlgorithms() []core.Algorithm {
	algos := make([]core.Algorithm, len(synthSet))
	for i, a := range synthSet {
		algos[i] = core.Algorithm{Name: a.name, Space: synthSpace(), Init: param.Config{0, 0}}
	}
	return algos
}

// synthMeasure builds a Measure over synthSet with multiplicative Gaussian
// noise of the given relative magnitude.
func synthMeasure(noise float64, r *rand.Rand) core.Measure {
	return func(algo int, c param.Config) float64 {
		v := synthSet[algo].cost(c)
		if noise > 0 {
			v *= 1 + noise*r.NormFloat64()
			if v < 0.01 {
				v = 0.01
			}
		}
		return v
	}
}

// runSynth runs one tuner over the synthetic bandit and returns the mean
// cost over the final quarter of the run (converged performance) plus the
// per-algorithm counts.
func runSynth(sel nominal.Selector, factory search.Factory, iters int, seed int64, noise float64) (tail float64, counts []int) {
	tuner, err := core.NewTuner(synthAlgorithms(), sel, factory, seed)
	if err != nil {
		panic(err)
	}
	r := rand.New(rand.NewSource(seed + 7))
	m := synthMeasure(noise, r)
	var vals []float64
	for i := 0; i < iters; i++ {
		vals = append(vals, tuner.Step(m).Value)
	}
	return stats.Mean(vals[len(vals)*3/4:]), tuner.Counts()
}

// AblationWindowSize probes the window-size sensitivity of the Gradient
// Weighted and Sliding-Window AUC strategies (the paper fixes 16).
func AblationWindowSize(w io.Writer, reps, iters int, seed int64) *report.Table {
	t := report.NewTable("Ablation A1: iteration window size (paper fixes 16)",
		"strategy", "window", "tail mean [cost]")
	for _, win := range []int{4, 8, 16, 32, 64} {
		for _, mk := range []func() nominal.Selector{
			func() nominal.Selector { g := nominal.NewGradientWeighted(); g.Window = win; return g },
			func() nominal.Selector { a := nominal.NewSlidingWindowAUC(); a.Window = win; return a },
		} {
			var tails []float64
			var name string
			for rep := 0; rep < reps; rep++ {
				sel := mk()
				name = sel.Name()
				tail, _ := runSynth(sel, nil, iters, seed+int64(rep), 0.02)
				tails = append(tails, tail)
			}
			t.Addf(name, win, stats.Mean(tails))
		}
	}
	if w != nil {
		t.Render(w)
	}
	return t
}

// AblationEpsilonSweep extends the paper's ε ∈ {5,10,20}% to a full sweep.
func AblationEpsilonSweep(w io.Writer, reps, iters int, seed int64) *report.Table {
	t := report.NewTable("Ablation A2: ε sweep for ε-Greedy",
		"epsilon", "tail mean [cost]", "best-algo share")
	for _, eps := range []float64{0.01, 0.02, 0.05, 0.10, 0.20, 0.40} {
		var tails, shares []float64
		for rep := 0; rep < reps; rep++ {
			tail, counts := runSynth(nominal.NewEpsilonGreedy(eps), nil, iters, seed+int64(rep), 0.02)
			tails = append(tails, tail)
			total := 0
			for _, c := range counts {
				total += c
			}
			shares = append(shares, float64(counts[1])/float64(total)) // tunable-best
		}
		t.Addf(fmt.Sprintf("%g%%", eps*100), stats.Mean(tails), stats.Mean(shares))
	}
	if w != nil {
		t.Render(w)
	}
	return t
}

// AblationCrossover reproduces the paper's §IV-C threat to validity: an
// algorithm that starts slower but tunes past the static best. It reports,
// per strategy, how often the crossing algorithm ends up the incumbent.
func AblationCrossover(w io.Writer, reps, iters int, seed int64) *report.Table {
	t := report.NewTable("Ablation A3: crossover scenario (tunable algorithm overtakes static best)",
		"strategy", "found crossover [%]", "tail mean [cost]")
	for _, sname := range StrategyNames() {
		found := 0
		var tails []float64
		for rep := 0; rep < reps; rep++ {
			sel, err := nominal.NewByName(sname)
			if err != nil {
				panic(err)
			}
			tuner, err := core.NewTuner(synthAlgorithms(), sel, nil, seed+int64(rep))
			if err != nil {
				panic(err)
			}
			r := rand.New(rand.NewSource(seed + int64(rep) + 7))
			m := synthMeasure(0.02, r)
			var vals []float64
			for i := 0; i < iters; i++ {
				vals = append(vals, tuner.Step(m).Value)
			}
			if best, _, _ := tuner.Best(); best == 1 {
				found++
			}
			tails = append(tails, stats.Mean(vals[len(vals)*3/4:]))
		}
		t.Addf(sname, 100*float64(found)/float64(reps), stats.Mean(tails))
	}
	if w != nil {
		t.Render(w)
	}
	return t
}

// AblationPhase1Strategies swaps the phase-one optimizer inside the
// two-phase tuner (the paper always uses Nelder-Mead).
func AblationPhase1Strategies(w io.Writer, reps, iters int, seed int64) *report.Table {
	t := report.NewTable("Ablation A4: phase-one strategy inside the two-phase tuner (selector: e-Greedy 10%)",
		"phase-1 strategy", "tail mean [cost]")
	for _, name := range []string{"nelder-mead", "hooke-jeeves", "hillclimb", "anneal", "pso", "diffevo", "genetic", "random"} {
		var tails []float64
		for rep := 0; rep < reps; rep++ {
			factory, err := search.NewByName(name, seed+int64(rep))
			if err != nil {
				panic(err)
			}
			tail, _ := runSynth(nominal.NewEpsilonGreedy(0.10), factory, iters, seed+int64(rep), 0.02)
			tails = append(tails, tail)
		}
		t.Addf(name, stats.Mean(tails))
	}
	if w != nil {
		t.Render(w)
	}
	return t
}

// AblationSoftmax contrasts the soft-max (Gibbs) policy the paper rejects
// with ε-Greedy: soft-max suppresses initially bad algorithms, starving
// the one that needs tuning to win.
func AblationSoftmax(w io.Writer, reps, iters int, seed int64) *report.Table {
	t := report.NewTable("Ablation A5: soft-max policy (rejected in §III-A) vs e-Greedy",
		"selector", "tail mean [cost]", "tunable-best share")
	selectors := []func() nominal.Selector{
		func() nominal.Selector { return nominal.NewEpsilonGreedy(0.10) },
		func() nominal.Selector { return nominal.NewSoftmax(0.05) },
		func() nominal.Selector { return nominal.NewSoftmax(0.5) },
	}
	for _, mk := range selectors {
		var tails, shares []float64
		var name string
		for rep := 0; rep < reps; rep++ {
			sel := mk()
			name = sel.Name()
			tail, counts := runSynth(sel, nil, iters, seed+int64(rep), 0.02)
			tails = append(tails, tail)
			total := 0
			for _, c := range counts {
				total += c
			}
			shares = append(shares, float64(counts[1])/float64(total))
		}
		t.Addf(name, stats.Mean(tails), stats.Mean(shares))
	}
	if w != nil {
		t.Render(w)
	}
	return t
}

// AblationCombined evaluates the strategy combination the paper's
// conclusion proposes as future work: ε-Greedy exploitation with
// Gradient-Weighted exploration (nominal.GreedyGradient). It runs the
// crossover scenario of A3, where plain ε-Greedy starves the improving
// algorithm and plain Gradient Weighted never settles.
func AblationCombined(w io.Writer, reps, iters int, seed int64) *report.Table {
	t := report.NewTable("Ablation A6: combined strategy (ε-Greedy exploitation + gradient-weighted exploration)",
		"strategy", "found crossover [%]", "tail mean [cost]")
	for _, sname := range []string{"egreedy:10", "egreedy:20", "gradient", "greedygradient:10", "greedygradient:20"} {
		found := 0
		var tails []float64
		for rep := 0; rep < reps; rep++ {
			sel, err := nominal.NewByName(sname)
			if err != nil {
				panic(err)
			}
			tuner, err := core.NewTuner(synthAlgorithms(), sel, nil, seed+int64(rep))
			if err != nil {
				panic(err)
			}
			r := rand.New(rand.NewSource(seed + int64(rep) + 7))
			m := synthMeasure(0.02, r)
			var vals []float64
			for i := 0; i < iters; i++ {
				vals = append(vals, tuner.Step(m).Value)
			}
			if best, _, _ := tuner.Best(); best == 1 {
				found++
			}
			tails = append(tails, stats.Mean(vals[len(vals)*3/4:]))
		}
		t.Addf(sname, 100*float64(found)/float64(reps), stats.Mean(tails))
	}
	if w != nil {
		t.Render(w)
	}
	return t
}

// AblationDrift probes context drift, the motivation the paper opens with
// ("this variation can occur during application runtime"): halfway through
// the run the cost landscape flips — the previously fastest algorithm
// becomes slow and a previously mediocre one becomes fast. Strategies that
// judge algorithms by all-time-best records (plain ε-Greedy, Optimum
// Weighted) stay loyal to the stale winner; window-based strategies
// (Sliding-Window AUC, recency-windowed ε-Greedy) adapt.
func AblationDrift(w io.Writer, reps, iters int, seed int64) *report.Table {
	t := report.NewTable("Ablation A7: context drift at the half-way point",
		"selector", "post-drift tail mean [cost]")
	// Two untunable algorithms whose costs swap at iters/2.
	algos := []core.Algorithm{{Name: "early-fast"}, {Name: "late-fast"}}
	selectors := []func() nominal.Selector{
		func() nominal.Selector { return nominal.NewEpsilonGreedy(0.10) },
		func() nominal.Selector {
			e := nominal.NewEpsilonGreedy(0.10)
			e.RecencyWindow = DefaultDriftWindow
			return e
		},
		func() nominal.Selector { return nominal.NewOptimumWeighted() },
		func() nominal.Selector { return nominal.NewSlidingWindowAUC() },
		func() nominal.Selector { return nominal.NewUniformRandom() },
	}
	for _, mk := range selectors {
		var tails []float64
		var name string
		for rep := 0; rep < reps; rep++ {
			sel := mk()
			name = sel.Name()
			if mk2IsWindowed(sel) {
				name += " windowed"
			}
			tuner, err := core.NewTuner(algos, sel, nil, seed+int64(rep))
			if err != nil {
				panic(err)
			}
			r := rand.New(rand.NewSource(seed + int64(rep) + 3))
			iter := 0
			m := func(algo int, _ param.Config) float64 {
				var v float64
				if iter < iters/2 {
					v = []float64{5, 20}[algo]
				} else {
					v = []float64{20, 5}[algo]
				}
				iter++
				return v * (1 + 0.02*r.NormFloat64())
			}
			var vals []float64
			for i := 0; i < iters; i++ {
				vals = append(vals, tuner.Step(m).Value)
			}
			tails = append(tails, stats.Mean(vals[len(vals)*3/4:]))
		}
		t.Addf(name, stats.Mean(tails))
	}
	if w != nil {
		t.Render(w)
	}
	return t
}

// DefaultDriftWindow is the recency window used by the windowed ε-Greedy
// variant in the drift ablation.
const DefaultDriftWindow = 16

// mk2IsWindowed reports whether the selector is a windowed ε-Greedy.
func mk2IsWindowed(s nominal.Selector) bool {
	e, ok := s.(*nominal.EpsilonGreedy)
	return ok && e.RecencyWindow > 0
}

// AblationNoise probes measurement-noise sensitivity, the §II-A caveat
// ("approximative search techniques tend to be vulnerable to measurement
// noise"): the two-phase tuner runs under increasing multiplicative noise,
// with and without the median-of-3 measurement decorator. The reported
// cost is the TRUE cost of the final incumbent configuration, so the
// table measures how badly noise misleads the tuner, not how noisy the
// numbers look. The decorator triples the cost of each iteration, so its
// rows run iters/3 iterations for a fair total-budget comparison.
func AblationNoise(w io.Writer, reps, iters int, seed int64) *report.Table {
	t := report.NewTable("Ablation A8: measurement noise vs the median-of-k decorator (equal total budget)",
		"noise", "raw [true cost]", "median-of-3 [true cost]")
	trueCost := func(algo int, c param.Config) float64 { return synthSet[algo].cost(c) }
	run := func(noise float64, k, budget int, seed int64) float64 {
		sel := nominal.NewEpsilonGreedy(0.10)
		tuner, err := core.NewTuner(synthAlgorithms(), sel, nil, seed)
		if err != nil {
			panic(err)
		}
		r := rand.New(rand.NewSource(seed + 7))
		m := core.MedianOfK(synthMeasure(noise, r), k)
		for i := 0; i < budget/k; i++ {
			tuner.Step(m)
		}
		algo, cfg, _ := tuner.Best()
		return trueCost(algo, cfg)
	}
	for _, noise := range []float64{0, 0.05, 0.15, 0.30, 0.60} {
		var raw, med []float64
		for rep := 0; rep < reps; rep++ {
			raw = append(raw, run(noise, 1, iters, seed+int64(rep)))
			med = append(med, run(noise, 3, iters, seed+int64(rep)))
		}
		t.Addf(fmt.Sprintf("%g%%", noise*100), stats.Mean(raw), stats.Mean(med))
	}
	if w != nil {
		t.Render(w)
	}
	return t
}

// AblationMixedNominal is extension X3: the benchmark the paper's
// conclusion calls for — tuning parameter spaces that COMBINE nominal
// with non-nominal parameters. One synthetic algorithm carries a nominal
// "layout" parameter (three branches with different floors) plus a
// numeric parameter (per-branch optimum). Two treatments compete under
// the same ε-Greedy selector and iteration budget:
//
//   - genetic-phase1: the plain two-phase tuner; its phase one falls back
//     to a genetic algorithm because Nelder-Mead refuses the mixed space
//     (the paper's §II-B analysis in action);
//   - expansion: core.ExpandNominal lifts the nominal parameter into the
//     bandit, leaving a metric residual space that Nelder-Mead handles.
//
// Reported: how often the run ends on the best branch, and the true cost
// of the final incumbent.
func AblationMixedNominal(w io.Writer, reps, iters int, seed int64) *report.Table {
	t := report.NewTable("Extension X3: mixed nominal+numeric spaces — GA phase-1 vs nominal expansion",
		"treatment", "best branch found [%]", "true cost of incumbent")

	mixedSpace := param.NewSpace(
		param.NewNominal("layout", "row", "col", "tiled"),
		param.NewInterval("x", 0, 10),
	)
	// Branch floors 9 / 7 / 3 with optima at x = 2 / 5 / 8.
	floors := []float64{9, 7, 3}
	opts := []float64{2, 5, 8}
	trueCost := func(c param.Config) float64 {
		b := int(c[0])
		d := c[1] - opts[b]
		return floors[b] + d*d/4
	}
	baseAlgos := []core.Algorithm{
		{Name: "static"}, // constant 8: the mixed algorithm must be tuned to win
		{Name: "mixed", Space: mixedSpace, Init: param.Config{0, 0}},
	}
	measureFor := func(r *rand.Rand) core.Measure {
		return func(algo int, c param.Config) float64 {
			v := 8.0
			if algo == 1 {
				v = trueCost(c)
			}
			return v * (1 + 0.02*r.NormFloat64())
		}
	}

	type outcome struct {
		foundPct, cost float64
	}
	runTreatment := func(expand bool) outcome {
		found := 0
		var costs []float64
		for rep := 0; rep < reps; rep++ {
			s := seed + int64(rep)
			r := rand.New(rand.NewSource(s + 13))
			m := measureFor(r)
			var bestCfgCost float64
			var onBestBranch bool
			if expand {
				e, err := core.ExpandNominal(baseAlgos)
				if err != nil {
					panic(err)
				}
				tuner, err := core.NewTuner(e.Algos, nominal.NewEpsilonGreedy(0.10), nil, s)
				if err != nil {
					panic(err)
				}
				tuner.Run(iters, e.Measure(m))
				algo, cfg, _ := e.BestOriginal(tuner)
				if algo == 1 {
					bestCfgCost = trueCost(cfg)
					onBestBranch = int(cfg[0]) == 2
				} else {
					bestCfgCost = 8
				}
			} else {
				tuner, err := core.NewTuner(baseAlgos, nominal.NewEpsilonGreedy(0.10), nil, s)
				if err != nil {
					panic(err)
				}
				tuner.Run(iters, m)
				algo, cfg, _ := tuner.Best()
				if algo == 1 {
					bestCfgCost = trueCost(cfg)
					onBestBranch = int(cfg[0]) == 2
				} else {
					bestCfgCost = 8
				}
			}
			if onBestBranch {
				found++
			}
			costs = append(costs, bestCfgCost)
		}
		return outcome{100 * float64(found) / float64(reps), stats.Mean(costs)}
	}

	ga := runTreatment(false)
	ex := runTreatment(true)
	t.Addf("genetic-phase1", ga.foundPct, ga.cost)
	t.Addf("expansion", ex.foundPct, ex.cost)
	if w != nil {
		t.Render(w)
	}
	return t
}

// AblationRegret reports cumulative regret — the standard bandit metric
// the paper does not use but its strategies invite: Σᵢ (true cost of the
// iteration's choice − global floor). Unlike converged tail cost, regret
// also charges for the exploration spent getting there, so fast-converging
// strategies with cheap exploration score best. Runs on the synthetic
// model with the paper's six strategies plus the UCB1 and uniform-random
// baselines and the §VI combination.
func AblationRegret(w io.Writer, reps, iters int, seed int64) *report.Table {
	t := report.NewTable("Analysis A9: cumulative regret over the synthetic model",
		"strategy", "cumulative regret", "per-iteration")
	const floor = 4.0 // tunable-best's optimum
	names := append(append([]string{}, StrategyNames()...),
		"greedygradient:10", "ucb1", "random")
	for _, sname := range names {
		var regrets []float64
		for rep := 0; rep < reps; rep++ {
			sel, err := nominal.NewByName(sname)
			if err != nil {
				panic(err)
			}
			tuner, err := core.NewTuner(synthAlgorithms(), sel, nil, seed+int64(rep))
			if err != nil {
				panic(err)
			}
			r := rand.New(rand.NewSource(seed + int64(rep) + 7))
			m := synthMeasure(0.02, r)
			regret := 0.0
			for i := 0; i < iters; i++ {
				rec := tuner.Step(m)
				regret += synthSet[rec.Algo].cost(rec.Config) - floor
			}
			regrets = append(regrets, regret)
		}
		mean := stats.Mean(regrets)
		t.Addf(sname, mean, mean/float64(iters))
	}
	if w != nil {
		t.Render(w)
	}
	return t
}
