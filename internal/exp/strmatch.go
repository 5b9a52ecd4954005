package exp

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ctxtune"
	"repro/internal/nominal"
	"repro/internal/param"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/strmatch"
)

// UntunedMatchers is the Figure 1 experiment: every string matching
// algorithm runs the benchmark query Reps times without any tuning; the
// result is one timing sample set per algorithm.
type UntunedMatchers struct {
	Labels  []string
	Samples [][]float64 // [algorithm][rep] in ms
}

// RunUntunedMatchers executes the Figure 1 experiment.
func RunUntunedMatchers(cfg Config) *UntunedMatchers {
	cfg = cfg.sanitize()
	text := corpus.Bible(cfg.CorpusSize, cfg.Seed)
	pattern := []byte(cfg.Pattern)
	res := &UntunedMatchers{Labels: strmatch.Names()}
	res.Samples = make([][]float64, len(res.Labels))
	for ai, name := range res.Labels {
		m, err := strmatch.New(name)
		if err != nil {
			panic(err) // unreachable: Names and New agree
		}
		// One warmup run keeps first-touch allocations out of the samples.
		strmatch.Run(m, pattern, text, cfg.Workers)
		samples := make([]float64, cfg.Reps)
		for r := 0; r < cfg.Reps; r++ {
			samples[r] = timeIt(func() {
				strmatch.Run(m, pattern, text, cfg.Workers)
			})
		}
		res.Samples[ai] = samples
	}
	return res
}

// Boxes summarizes the samples per algorithm.
func (u *UntunedMatchers) Boxes() []stats.BoxPlot {
	bs := make([]stats.BoxPlot, len(u.Samples))
	for i, s := range u.Samples {
		bs[i] = stats.NewBoxPlot(s)
	}
	return bs
}

// RenderFigure1 writes the Figure 1 boxplot table.
func (u *UntunedMatchers) RenderFigure1(w io.Writer) {
	report.BoxTable(w,
		"Figure 1: performance of the parallel string matching algorithms (no tuning)",
		u.Labels, u.Boxes(), "ms")
}

// TunedMatchers is the shared run behind Figures 2, 3 and 4: the online
// tuner selects among the eight matchers each iteration, for every
// phase-two strategy, repeated Reps times.
type TunedMatchers struct {
	// StrategyLabels and AlgorithmLabels index the result matrices.
	StrategyLabels  []string
	AlgorithmLabels []string
	// Curves[s] collects each repetition's per-iteration times.
	Curves []*stats.Series
	// Counts[s] collects each repetition's per-algorithm selection counts.
	Counts []*stats.CountMatrix
}

// matcherAlgorithms builds the tuner's algorithm set: the eight matchers,
// none of which exposes tunable parameters (empty spaces).
func matcherAlgorithms() []core.Algorithm {
	names := strmatch.Names()
	algos := make([]core.Algorithm, len(names))
	for i, n := range names {
		algos[i] = core.Algorithm{Name: n}
	}
	return algos
}

// RunTunedMatchers executes the case study 1 tuning experiment.
func RunTunedMatchers(cfg Config) *TunedMatchers {
	cfg = cfg.sanitize()
	text := corpus.Bible(cfg.CorpusSize, cfg.Seed)
	pattern := []byte(cfg.Pattern)
	names := strmatch.Names()

	// One prepared matcher instance per algorithm; Precompute is re-run
	// inside the measured operation, matching the paper ("any
	// precomputation is part of the algorithm's runtime").
	matchers := make([]strmatch.Matcher, len(names))
	for i, n := range names {
		m, err := strmatch.New(n)
		if err != nil {
			panic(err)
		}
		matchers[i] = m
	}
	measure := func(algo int, _ param.Config) float64 {
		return timeIt(func() {
			strmatch.Run(matchers[algo], pattern, text, cfg.Workers)
		})
	}

	res := &TunedMatchers{
		StrategyLabels:  StrategyLabels(),
		AlgorithmLabels: names,
	}
	for si, sname := range StrategyNames() {
		series := stats.NewSeries()
		counts := stats.NewCountMatrix(names)
		for rep := 0; rep < cfg.Reps; rep++ {
			sel, err := nominal.NewByName(sname)
			if err != nil {
				panic(err)
			}
			seed := cfg.Seed + int64(rep)*1000 + int64(si)
			tuner, err := core.NewTuner(matcherAlgorithms(), sel, nil, seed)
			if err != nil {
				panic(err)
			}
			run := make([]float64, cfg.Iters)
			for i := 0; i < cfg.Iters; i++ {
				run[i] = tuner.Step(measure).Value
			}
			series.Add(run)
			counts.AddRun(tuner.Counts())
		}
		res.Curves = append(res.Curves, series)
		res.Counts = append(res.Counts, counts)
	}
	return res
}

// RenderFigure2 writes the median per-iteration performance of every
// strategy (the paper caps the plot at 25 iterations, after which all
// strategies are converged).
func (t *TunedMatchers) RenderFigure2(w io.Writer) {
	c := report.NewChart("Figure 2: median performance per iteration (string matching)", "iteration", "ms")
	for i, label := range t.StrategyLabels {
		c.Add(label, t.Curves[i].MedianCurve(25))
	}
	c.WriteASCII(w, 72, 16)
}

// RenderFigure3 writes the mean per-iteration performance (capped at 50
// iterations as in the paper).
func (t *TunedMatchers) RenderFigure3(w io.Writer) {
	c := report.NewChart("Figure 3: mean performance per iteration (string matching)", "iteration", "ms")
	for i, label := range t.StrategyLabels {
		c.Add(label, t.Curves[i].MeanCurve(50))
	}
	c.WriteASCII(w, 72, 16)
}

// RenderFigure4 writes the per-strategy algorithm choice histograms as
// boxplots over the repetitions.
func (t *TunedMatchers) RenderFigure4(w io.Writer) {
	fmt.Fprintln(w, "Figure 4: frequency of algorithms chosen by the strategies")
	for si, label := range t.StrategyLabels {
		cm := t.Counts[si]
		boxes := make([]stats.BoxPlot, len(t.AlgorithmLabels))
		for ai := range t.AlgorithmLabels {
			boxes[ai] = cm.Box(ai)
		}
		report.BoxTable(w, "  strategy: "+label, t.AlgorithmLabels, boxes, "selections")
		fmt.Fprintln(w)
	}
}

// CurvesChart exposes the median curves as a chart for CSV export.
func (t *TunedMatchers) CurvesChart(median bool, limit int) *report.Chart {
	title := "mean"
	if median {
		title = "median"
	}
	c := report.NewChart("string matching "+title+" per iteration", "iteration", "ms")
	for i, label := range t.StrategyLabels {
		if median {
			c.Add(label, t.Curves[i].MedianCurve(limit))
		} else {
			c.Add(label, t.Curves[i].MeanCurve(limit))
		}
	}
	return c
}

// BestAlgorithm returns, for strategy s, the algorithm selected most often
// on average — the headline result the histograms support.
func (t *TunedMatchers) BestAlgorithm(s int) string {
	cm := t.Counts[s]
	best, bestMean := 0, -1.0
	for ai := range t.AlgorithmLabels {
		if m := cm.MeanOf(ai); m > bestMean {
			bestMean = m
			best = ai
		}
	}
	return t.AlgorithmLabels[best]
}

// RunUntunedMatchersDNA is extension experiment X1: the matchers on a
// genome-like 4-letter corpus — the second corpus family of the source
// string matching paper [11]. Small alphabets invert parts of the Figure 1
// ranking (skip distances shrink for heuristic matchers, favouring the
// bit-parallel and hashed ones), which is precisely why the optimal
// algorithm cannot be fixed a priori and must be tuned online.
func RunUntunedMatchersDNA(cfg Config) *UntunedMatchers {
	cfg = cfg.sanitize()
	text := corpus.DNA(cfg.CorpusSize, cfg.Seed)
	// Sample the query from the corpus so matches exist, then plant a few
	// more for a realistic hit count.
	patLen := len(cfg.Pattern)
	if patLen > len(text)/2 {
		patLen = 32
	}
	pattern := append([]byte(nil), text[len(text)/3:len(text)/3+patLen]...)
	corpus.Plant(text, pattern, 4, cfg.Seed+2)
	res := &UntunedMatchers{Labels: strmatch.Names()}
	res.Samples = make([][]float64, len(res.Labels))
	for ai, name := range res.Labels {
		m, err := strmatch.New(name)
		if err != nil {
			panic(err)
		}
		strmatch.Run(m, pattern, text, cfg.Workers)
		samples := make([]float64, cfg.Reps)
		for r := 0; r < cfg.Reps; r++ {
			samples[r] = timeIt(func() {
				strmatch.Run(m, pattern, text, cfg.Workers)
			})
		}
		res.Samples[ai] = samples
	}
	return res
}

// RenderFigureX1 writes the DNA-corpus boxplot table.
func (u *UntunedMatchers) RenderFigureX1(w io.Writer) {
	report.BoxTable(w,
		"Extension X1: the string matching algorithms on a genome-like corpus (no tuning)",
		u.Labels, u.Boxes(), "ms")
}

// PatternSweep is extension experiment X2: input sensitivity. The related
// work the paper builds on (PetaBricks' input-sensitive decision trees,
// Nitro's feature-trained models) exists because the best algorithm
// changes with the input; here the input feature is the pattern length.
// For each length the experiment measures every matcher directly AND runs
// a short online-tuning session, recording which algorithm the tuner
// converged on — showing the tuner rediscovering the length-dependent
// winner that the Hybrid matcher hard-codes.
type PatternSweep struct {
	Lengths []int
	// Winner[i] is the measured-fastest matcher at Lengths[i];
	// TunerChoice[i] the algorithm the online tuner selected most.
	Winner, TunerChoice []string
	// MedianMS[i][a] is the median time of matcher a at Lengths[i].
	MedianMS [][]float64
	Labels   []string
}

// RunPatternSweep executes the X2 experiment.
func RunPatternSweep(cfg Config, lengths []int) *PatternSweep {
	cfg = cfg.sanitize()
	if len(lengths) == 0 {
		lengths = []int{4, 8, 16, 37, 64, 128}
	}
	text := corpus.English(cfg.CorpusSize, cfg.Seed)
	names := strmatch.Names()
	res := &PatternSweep{Lengths: lengths, Labels: names}
	for _, plen := range lengths {
		// Sample the pattern from the text so the match density is
		// realistic for every length.
		start := len(text) / 4
		pattern := append([]byte(nil), text[start:start+plen]...)

		medians := make([]float64, len(names))
		winner, winnerVal := "", 0.0
		for ai, name := range names {
			m, err := strmatch.New(name)
			if err != nil {
				panic(err)
			}
			strmatch.Run(m, pattern, text, cfg.Workers) // warmup
			samples := make([]float64, cfg.Reps)
			for r := range samples {
				samples[r] = timeIt(func() {
					strmatch.Run(m, pattern, text, cfg.Workers)
				})
			}
			medians[ai] = stats.Median(samples)
			if winner == "" || medians[ai] < winnerVal {
				winner, winnerVal = name, medians[ai]
			}
		}
		res.MedianMS = append(res.MedianMS, medians)
		res.Winner = append(res.Winner, winner)

		// Short online-tuning session on this input.
		matchers := make([]strmatch.Matcher, len(names))
		for i, n := range names {
			m, err := strmatch.New(n)
			if err != nil {
				panic(err)
			}
			matchers[i] = m
		}
		measure := func(algo int, _ param.Config) float64 {
			return timeIt(func() {
				strmatch.Run(matchers[algo], pattern, text, cfg.Workers)
			})
		}
		tuner, err := core.NewTuner(matcherAlgorithms(), nominal.NewEpsilonGreedy(0.10), nil, cfg.Seed+int64(plen))
		if err != nil {
			panic(err)
		}
		tuner.Run(cfg.Iters, measure)
		counts := tuner.Counts()
		best := 0
		for i, c := range counts {
			if c > counts[best] {
				best = i
			}
		}
		res.TunerChoice = append(res.TunerChoice, names[best])
	}
	return res
}

// RenderFigureX2 writes the input-sensitivity table.
func (p *PatternSweep) RenderFigureX2(w io.Writer) *report.Table {
	t := report.NewTable("Extension X2: input sensitivity — winner by pattern length",
		"pattern length", "measured fastest", "tuner's choice", "fastest median [ms]")
	for i, plen := range p.Lengths {
		best := 0
		for a := range p.MedianMS[i] {
			if p.MedianMS[i][a] < p.MedianMS[i][best] {
				best = a
			}
		}
		t.Addf(plen, p.Winner[i], p.TunerChoice[i], p.MedianMS[i][best])
	}
	if w != nil {
		t.Render(w)
	}
	return t
}

// ContextualSweep is extension experiment X4: online contextual tuning.
// The input stream alternates between a short and a long query pattern —
// X2 showed their winners differ — and two treatments compete: a single
// global tuner (which can only commit to one algorithm) and a
// ctxtune.Keyed family keyed by the pattern class. Reported per
// treatment: total time spent and the most-chosen matcher per context.
type ContextualSweep struct {
	GlobalTotalMS, ContextualTotalMS float64
	GlobalChoice                     string
	ContextChoice                    map[string]string
}

// RunContextualSweep executes the X4 experiment.
func RunContextualSweep(cfg Config) *ContextualSweep {
	cfg = cfg.sanitize()
	text := corpus.English(cfg.CorpusSize, cfg.Seed)
	patterns := map[string][]byte{
		"short": []byte("the "),
		"long":  append([]byte(nil), text[len(text)/4:len(text)/4+64]...),
	}
	contexts := []string{"short", "long"}
	names := strmatch.Names()
	matchers := make([]strmatch.Matcher, len(names))
	for i, n := range names {
		m, err := strmatch.New(n)
		if err != nil {
			panic(err)
		}
		matchers[i] = m
	}
	measure := func(ctx string) core.Measure {
		return func(algo int, _ param.Config) float64 {
			return timeIt(func() {
				strmatch.Run(matchers[algo], patterns[ctx], text, cfg.Workers)
			})
		}
	}

	res := &ContextualSweep{ContextChoice: map[string]string{}}
	iters := cfg.Iters * 2 // both treatments see every context cfg.Iters times

	global, err := core.NewTuner(matcherAlgorithms(), nominal.NewEpsilonGreedy(0.10), nil, cfg.Seed)
	if err != nil {
		panic(err)
	}
	for i := 0; i < iters; i++ {
		ctx := contexts[i%2]
		res.GlobalTotalMS += global.Step(measure(ctx)).Value
	}
	gBest := 0
	gCounts := global.Counts()
	for i, c := range gCounts {
		if c > gCounts[gBest] {
			gBest = i
		}
	}
	res.GlobalChoice = names[gBest]

	ctxFamily := ctxtune.NewKeyed(matcherAlgorithms(),
		func() nominal.Selector { return nominal.NewEpsilonGreedy(0.10) }, nil, cfg.Seed)
	for i := 0; i < iters; i++ {
		ctx := contexts[i%2]
		rec, err := ctxFamily.Step(ctx, measure(ctx))
		if err != nil {
			panic(err)
		}
		res.ContextualTotalMS += rec.Value
	}
	for _, ctx := range contexts {
		t, err := ctxFamily.For(ctx)
		if err != nil {
			panic(err)
		}
		counts := t.Counts()
		best := 0
		for i, c := range counts {
			if c > counts[best] {
				best = i
			}
		}
		res.ContextChoice[ctx] = names[best]
	}
	return res
}

// RenderFigureX4 writes the contextual-tuning comparison.
func (c *ContextualSweep) RenderFigureX4(w io.Writer) *report.Table {
	t := report.NewTable("Extension X4: contextual tuning under an alternating input stream",
		"treatment", "total time [ms]", "choices")
	t.Addf("global tuner", c.GlobalTotalMS, "always "+c.GlobalChoice)
	t.Addf("contextual tuners", c.ContextualTotalMS,
		fmt.Sprintf("short→%s, long→%s", c.ContextChoice["short"], c.ContextChoice["long"]))
	if w != nil {
		t.Render(w)
	}
	return t
}
