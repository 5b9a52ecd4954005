// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the ablations of DESIGN.md and the micro-benchmarks
// underlying them. One benchmark iteration of a BenchmarkFigureN runs the
// complete (quick-scale) experiment behind that figure; the converged
// performance is reported as a custom metric so `go test -bench` output
// doubles as the experiment record.
package repro

import (
	"io"
	"math/rand"
	"testing"

	"repro/internal/bvh"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/exp"
	"repro/internal/geom"
	"repro/internal/kdtree"
	"repro/internal/nominal"
	"repro/internal/param"
	"repro/internal/ray"
	"repro/internal/scenegen"
	"repro/internal/search"
	"repro/internal/stats"
	"repro/internal/strmatch"
)

// benchConfig is the scaled-down experiment configuration used by the
// figure benchmarks (the paper-scale run is cmd/atune-figures -paper).
func benchConfig() exp.Config {
	cfg := exp.TestConfig()
	cfg.Reps = 3
	cfg.Iters = 30
	cfg.Frames = 12
	return cfg
}

// tail reports the mean of the last quarter of a curve (converged level).
func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Mean(xs[len(xs)*3/4:])
}

// --- Table I ---------------------------------------------------------

// BenchmarkTable1ParamOps exercises the parameter-model operations that
// Table I classifies: clamping and enumerating each parameter class.
func BenchmarkTable1ParamOps(b *testing.B) {
	space := param.NewSpace(
		param.NewNominal("algo", "a", "b", "c", "d"),
		param.NewOrdinal("size", "s", "m", "l"),
		param.NewInterval("pct", 0, 100),
		param.NewRatioInt("threads", 1, 8),
	)
	c := param.Config{1.4, 2.6, 150, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = space.Clamp(c)
	}
}

// --- Case study 1: string matching -----------------------------------

// BenchmarkFigure1StringMatchers times each matcher on the benchmark
// corpus — the data behind Figure 1's boxplots.
func BenchmarkFigure1StringMatchers(b *testing.B) {
	text := corpus.Bible(1<<20, 1)
	pattern := []byte(corpus.QueryPhrase)
	for _, name := range strmatch.Names() {
		m, err := strmatch.New(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(text)))
			for i := 0; i < b.N; i++ {
				strmatch.Run(m, pattern, text, 4)
			}
		})
	}
}

// BenchmarkExtensionX1DNAMatchers times each matcher on the genome-like
// corpus (extension X1).
func BenchmarkExtensionX1DNAMatchers(b *testing.B) {
	text := corpus.DNA(1<<20, 1)
	pattern := append([]byte(nil), text[1000:1032]...)
	for _, name := range strmatch.Names() {
		m, err := strmatch.New(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(text)))
			for i := 0; i < b.N; i++ {
				strmatch.Run(m, pattern, text, 4)
			}
		})
	}
}

// BenchmarkExtensionX2PatternSweep runs the input-sensitivity sweep.
func BenchmarkExtensionX2PatternSweep(b *testing.B) {
	cfg := benchConfig()
	cfg.Iters = 15
	for i := 0; i < b.N; i++ {
		exp.RunPatternSweep(cfg, []int{8, 37, 64})
	}
}

// BenchmarkFigure2MedianConvergence runs the case study 1 tuning
// experiment and reports the converged median time.
func BenchmarkFigure2MedianConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := exp.RunTunedMatchers(benchConfig())
		med := res.Curves[1].MedianCurve(0) // e-Greedy (10%)
		b.ReportMetric(tail(med), "converged-ms")
	}
}

// BenchmarkFigure3MeanConvergence reports the converged mean time.
func BenchmarkFigure3MeanConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := exp.RunTunedMatchers(benchConfig())
		mean := res.Curves[1].MeanCurve(0)
		b.ReportMetric(tail(mean), "converged-ms")
	}
}

// BenchmarkFigure4ChoiceHistogram reports how strongly e-Greedy (10%)
// concentrates on its preferred matcher.
func BenchmarkFigure4ChoiceHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		res := exp.RunTunedMatchers(cfg)
		cm := res.Counts[1]
		best := 0.0
		for ai := range res.AlgorithmLabels {
			if m := cm.MeanOf(ai); m > best {
				best = m
			}
		}
		b.ReportMetric(100*best/float64(cfg.Iters), "top-algo-%")
	}
}

// --- Case study 2: raytracing ----------------------------------------

// BenchmarkFigure5KDTreeTuning runs the isolated per-builder Nelder-Mead
// tuning timelines.
func BenchmarkFigure5KDTreeTuning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := exp.RunKDTreeTimelines(benchConfig())
		b.ReportMetric(tail(res.Curves[3].MeanCurve(0)), "wald-havran-ms")
	}
}

// BenchmarkFigure6CombinedMedian runs the combined two-phase raytracing
// tuning and reports the converged median frame time.
func BenchmarkFigure6CombinedMedian(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := exp.RunTunedRaytracing(benchConfig())
		b.ReportMetric(tail(res.Curves[1].MedianCurve(0)), "converged-ms")
	}
}

// BenchmarkFigure7CombinedMean reports the converged mean frame time.
func BenchmarkFigure7CombinedMean(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := exp.RunTunedRaytracing(benchConfig())
		b.ReportMetric(tail(res.Curves[1].MeanCurve(0)), "converged-ms")
	}
}

// BenchmarkFigure8ChoiceHistogram reports e-Greedy (10%)'s concentration
// on its preferred construction algorithm.
func BenchmarkFigure8ChoiceHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		res := exp.RunTunedRaytracing(cfg)
		cm := res.Counts[1]
		best := 0.0
		for ai := range res.AlgorithmLabels {
			if m := cm.MeanOf(ai); m > best {
				best = m
			}
		}
		b.ReportMetric(100*best/float64(cfg.Frames), "top-algo-%")
	}
}

// --- Ablations --------------------------------------------------------

func BenchmarkAblationWindowSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.AblationWindowSize(io.Discard, 3, 200, 1)
	}
}

func BenchmarkAblationEpsilonSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.AblationEpsilonSweep(io.Discard, 3, 200, 1)
	}
}

func BenchmarkAblationCrossover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.AblationCrossover(io.Discard, 3, 200, 1)
	}
}

func BenchmarkAblationPhase1Strategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.AblationPhase1Strategies(io.Discard, 3, 200, 1)
	}
}

func BenchmarkAblationSoftmax(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.AblationSoftmax(io.Discard, 3, 200, 1)
	}
}

func BenchmarkAblationCombined(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.AblationCombined(io.Discard, 3, 200, 1)
	}
}

func BenchmarkAblationDrift(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.AblationDrift(io.Discard, 3, 200, 1)
	}
}

func BenchmarkAblationNoise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.AblationNoise(io.Discard, 3, 200, 1)
	}
}

func BenchmarkAnalysisA9Regret(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.AblationRegret(io.Discard, 3, 200, 1)
	}
}

func BenchmarkAblationA10FaultInjection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.RunFaultInjection(benchConfig(), exp.DefaultFaultRates(), 500).RenderFigureA10(io.Discard)
	}
}

func BenchmarkAblationA11CheckpointCrash(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunCheckpointCrash(benchConfig(), 500, 10, 25)
		if err != nil {
			b.Fatal(err)
		}
		res.RenderFigureA11(io.Discard)
	}
}

func BenchmarkAblationA12ConcurrentTuning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.RunConcurrentTuning(benchConfig(), 500).RenderFigureA12(io.Discard)
	}
}

func BenchmarkExtensionX3MixedNominal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.AblationMixedNominal(io.Discard, 3, 300, 1)
	}
}

func BenchmarkExtensionX4Contextual(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		exp.RunContextualSweep(cfg)
	}
}

func BenchmarkExtensionX5StructureChoice(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		exp.RunStructureChoice(cfg)
	}
}

// BenchmarkBVHBuild times the BVH construction on the benchmark scene,
// the comparison point for BenchmarkKDTreeBuilders.
func BenchmarkBVHBuild(b *testing.B) {
	tris := scenegen.Cathedral(2).Triangles
	for i := 0; i < b.N; i++ {
		bvh.Build(tris, bvh.DefaultParams())
	}
}

// --- Micro-benchmarks underlying the experiments ----------------------

// BenchmarkKDTreeBuilders times one construction per builder on the
// benchmark scene — the stage-one cost Figure 5 tracks.
func BenchmarkKDTreeBuilders(b *testing.B) {
	tris := scenegen.Cathedral(2).Triangles
	for _, builder := range kdtree.AllBuilders() {
		b.Run(builder.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				builder.Build(tris, kdtree.DefaultParams())
			}
		})
	}
}

// BenchmarkRenderFrame times the complete two-stage pipeline.
func BenchmarkRenderFrame(b *testing.B) {
	scene := scenegen.Cathedral(1)
	pl := &ray.Pipeline{
		Tris:  scene.Triangles,
		Cam:   ray.Camera{Eye: scene.Eye, LookAt: scene.LookAt, FOV: 65},
		Light: scene.Light,
		Width: 96, Height: 72, Workers: 4,
	}
	for i := 0; i < b.N; i++ {
		pl.RenderFrame(kdtree.NestedBuilder{}, kdtree.DefaultParams())
	}
}

// BenchmarkSelectors measures per-iteration selector overhead — the cost
// the paper's strategies add to every tuning iteration.
func BenchmarkSelectors(b *testing.B) {
	mks := []func() nominal.Selector{
		func() nominal.Selector { return nominal.NewEpsilonGreedy(0.10) },
		func() nominal.Selector { return nominal.NewGradientWeighted() },
		func() nominal.Selector { return nominal.NewOptimumWeighted() },
		func() nominal.Selector { return nominal.NewSlidingWindowAUC() },
	}
	for _, mk := range mks {
		sel := mk()
		b.Run(sel.Name(), func(b *testing.B) {
			r := newBenchRand()
			sel.Init(8)
			for i := 0; i < b.N; i++ {
				a := sel.Select(r)
				sel.Report(a, float64(a+1))
			}
		})
	}
}

// BenchmarkNelderMeadStep measures the ask/tell overhead of the phase-one
// strategy used in both case studies.
func BenchmarkNelderMeadStep(b *testing.B) {
	space := param.NewSpace(
		param.NewInterval("x", 0, 10),
		param.NewInterval("y", 0, 10),
		param.NewRatioInt("z", 0, 100),
	)
	nm := search.NewNelderMead()
	if err := nm.Start(space, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := nm.Propose()
		nm.Report(c, c[0]*c[0]+c[1]+c[2])
	}
}

// newBenchRand returns a deterministic rand for the selector benchmark.
func newBenchRand() *rand.Rand { return rand.New(rand.NewSource(42)) }

// BenchmarkTrialEngineLeaseComplete measures the trial engine's per-trial
// bookkeeping (lease + complete + publish, no measurement cost) — the
// concurrent counterpart of BenchmarkNelderMeadStep, and the fixed
// engine overhead under the end-to-end numbers of the repository
// benchmark in bench/.
func BenchmarkTrialEngineLeaseComplete(b *testing.B) {
	algos := []core.Algorithm{
		{Name: "plain"},
		{Name: "tuned", Space: param.NewSpace(param.NewInterval("x", 0, 10))},
	}
	ct, err := core.NewTuner(algos, nominal.NewEpsilonGreedy(0.10), nil, 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := ct.Lease()
		if err != nil {
			b.Fatal(err)
		}
		if err := ct.Complete(tr.ID, float64(tr.Algo+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlatVsPointerTraversal contrasts the pointer-tree recursive
// traversal against the flat-array iterative one on identical rays — the
// memory-layout ablation behind kdtree.FlatTree.
func BenchmarkFlatVsPointerTraversal(b *testing.B) {
	scene := scenegen.Cathedral(2)
	tree := kdtree.NestedBuilder{}.Build(scene.Triangles, kdtree.DefaultParams())
	flat := tree.Flatten()
	cam := ray.Camera{Eye: scene.Eye, LookAt: scene.LookAt, FOV: 65}
	rays := make([]geom.Ray, 0, 64*48)
	for y := 0; y < 48; y++ {
		for x := 0; x < 64; x++ {
			rays = append(rays, cam.Ray(x, y, 64, 48))
		}
	}
	b.Run("pointer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, r := range rays {
				tree.Intersect(r, 1e-9, 1e18)
			}
		}
	})
	b.Run("flat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, r := range rays {
				flat.Intersect(r, 1e-9, 1e18)
			}
		}
	})
}
