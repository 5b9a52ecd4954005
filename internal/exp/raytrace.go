package exp

import (
	"fmt"
	"io"

	"repro/internal/bvh"
	"repro/internal/core"
	"repro/internal/kdtree"
	"repro/internal/nominal"
	"repro/internal/param"
	"repro/internal/ray"
	"repro/internal/report"
	"repro/internal/scenegen"
	"repro/internal/search"
	"repro/internal/stats"
)

// BuilderSpace returns the tuning-parameter space and the hand-crafted
// initial configuration for one kD-tree construction algorithm, following
// Tillmann et al.: the SAH parameters and the parallelization depth are
// tunable in all algorithms, the binned builders add the bin count, and
// Lazy adds the eager-construction cutoff.
func BuilderSpace(name string) (*param.Space, param.Config) {
	params := []param.Parameter{
		param.NewInterval("ctrav", 0.1, 4.0), // SAH traversal/intersection cost ratio
		param.NewRatioInt("leaf", 1, 32),     // SAH leaf-size threshold
		param.NewRatioInt("pdepth", 0, 6),    // parallelization depth
	}
	d := kdtree.DefaultParams()
	init := param.Config{
		d.TraversalCost / d.IntersectCost,
		float64(d.LeafSize),
		float64(d.ParallelDepth),
	}
	if name != "Wald-Havran" {
		params = append(params, param.NewRatioInt("bins", 8, 64))
		init = append(init, float64(d.Bins))
	}
	if name == "Lazy" {
		params = append(params, param.NewRatioInt("cutoff", 0, 8192))
		init = append(init, float64(d.EagerCutoff))
	}
	space := param.NewSpace(params...)
	return space, space.Clamp(init)
}

// ConfigToParams maps a configuration from BuilderSpace(name) onto
// concrete construction parameters.
func ConfigToParams(name string, c param.Config) kdtree.Params {
	p := kdtree.DefaultParams()
	p.IntersectCost = 1.0
	p.TraversalCost = c[0]
	p.LeafSize = int(c[1])
	p.ParallelDepth = int(c[2])
	if name != "Wald-Havran" {
		p.Bins = int(c[3])
	}
	if name == "Lazy" {
		p.EagerCutoff = int(c[4])
	}
	return p
}

// newPipeline builds the rendering pipeline for the configured scene.
func newPipeline(cfg Config) *ray.Pipeline {
	var scene scenegen.Scene
	switch cfg.SceneName {
	case "sphereflake":
		scene = scenegen.SphereFlake(cfg.SceneDetail, 8)
	case "boxgrid":
		scene = scenegen.BoxGrid(3 * cfg.SceneDetail)
	default:
		scene = scenegen.Cathedral(cfg.SceneDetail)
	}
	return &ray.Pipeline{
		Tris:    scene.Triangles,
		Cam:     ray.Camera{Eye: scene.Eye, LookAt: scene.LookAt, FOV: 65},
		Light:   scene.Light,
		Width:   cfg.FrameW,
		Height:  cfg.FrameH,
		Workers: cfg.RenderWorkers,
	}
}

// KDTreeTimelines is the Figure 5 experiment: each construction algorithm
// is tuned in isolation by the Nelder-Mead online autotuner, frame by
// frame; the curves are the per-iteration frame times averaged over the
// repetitions.
type KDTreeTimelines struct {
	Labels []string
	Curves []*stats.Series
}

// RunKDTreeTimelines executes the Figure 5 experiment.
func RunKDTreeTimelines(cfg Config) *KDTreeTimelines {
	cfg = cfg.sanitize()
	pl := newPipeline(cfg)
	res := &KDTreeTimelines{Labels: kdtree.BuilderNames()}
	for _, name := range res.Labels {
		builder, err := kdtree.NewBuilder(name)
		if err != nil {
			panic(err)
		}
		space, init := BuilderSpace(name)
		series := stats.NewSeries()
		for rep := 0; rep < cfg.Reps; rep++ {
			nm := search.NewNelderMead()
			if err := nm.Start(space, init); err != nil {
				panic(err)
			}
			run := make([]float64, cfg.Frames)
			for i := 0; i < cfg.Frames; i++ {
				c := nm.Propose()
				t := timeIt(func() {
					pl.RenderFrame(builder, ConfigToParams(name, c))
				})
				nm.Report(c, t)
				run[i] = t
			}
			series.Add(run)
		}
		res.Curves = append(res.Curves, series)
	}
	return res
}

// RenderFigure5 writes the per-algorithm tuning timelines (average frame
// time per iteration).
func (k *KDTreeTimelines) RenderFigure5(w io.Writer) {
	c := k.Chart()
	c.WriteASCII(w, 72, 16)
}

// Chart returns the Figure 5 chart (for CSV export).
func (k *KDTreeTimelines) Chart() *report.Chart {
	c := report.NewChart("Figure 5: tuning timeline of all four kD-tree construction algorithms (mean ms/frame)", "iteration", "ms")
	for i, label := range k.Labels {
		c.Add(label, k.Curves[i].MeanCurve(0))
	}
	return c
}

// TunedRaytracing is the shared run behind Figures 6, 7 and 8: the
// two-phase tuner combines algorithm selection with Nelder-Mead tuning of
// each construction algorithm's own parameters, frame by frame.
type TunedRaytracing struct {
	StrategyLabels  []string
	AlgorithmLabels []string
	Curves          []*stats.Series
	Counts          []*stats.CountMatrix
}

// builderAlgorithms builds the tuner's algorithm set for case study 2.
func builderAlgorithms() []core.Algorithm {
	names := kdtree.BuilderNames()
	algos := make([]core.Algorithm, len(names))
	for i, n := range names {
		space, init := BuilderSpace(n)
		algos[i] = core.Algorithm{Name: n, Space: space, Init: init}
	}
	return algos
}

// RunTunedRaytracing executes the case study 2 combined tuning experiment.
func RunTunedRaytracing(cfg Config) *TunedRaytracing {
	cfg = cfg.sanitize()
	pl := newPipeline(cfg)
	names := kdtree.BuilderNames()
	builders := make([]kdtree.Builder, len(names))
	for i, n := range names {
		b, err := kdtree.NewBuilder(n)
		if err != nil {
			panic(err)
		}
		builders[i] = b
	}
	measure := func(algo int, c param.Config) float64 {
		return timeIt(func() {
			pl.RenderFrame(builders[algo], ConfigToParams(names[algo], c))
		})
	}

	res := &TunedRaytracing{
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
			tuner, err := core.NewTuner(builderAlgorithms(), sel, core.DefaultFactory, seed)
			if err != nil {
				panic(err)
			}
			run := make([]float64, cfg.Frames)
			for i := 0; i < cfg.Frames; i++ {
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

// RenderFigure6 writes the median per-iteration frame time of every
// strategy.
func (t *TunedRaytracing) RenderFigure6(w io.Writer) {
	c := report.NewChart("Figure 6: median performance per iteration (raytracing, combined tuning)", "iteration", "ms")
	for i, label := range t.StrategyLabels {
		c.Add(label, t.Curves[i].MedianCurve(0))
	}
	c.WriteASCII(w, 72, 16)
}

// RenderFigure7 writes the mean per-iteration frame time.
func (t *TunedRaytracing) RenderFigure7(w io.Writer) {
	c := report.NewChart("Figure 7: mean performance per iteration (raytracing, combined tuning)", "iteration", "ms")
	for i, label := range t.StrategyLabels {
		c.Add(label, t.Curves[i].MeanCurve(0))
	}
	c.WriteASCII(w, 72, 16)
}

// RenderFigure8 writes the per-strategy construction-algorithm choice
// histograms.
func (t *TunedRaytracing) RenderFigure8(w io.Writer) {
	fmt.Fprintln(w, "Figure 8: frequency of construction algorithms chosen by the strategies")
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

// StructureChoice is extension experiment X5: the paper's question one
// level up — the online tuner chooses among five acceleration-structure
// alternatives (the four kD-tree construction algorithms plus a
// binned-SAH BVH), each with its own tunable parameters, frame by frame.
type StructureChoice struct {
	SelectorLabels []string
	ArmLabels      []string
	// Counts[s][a] is the mean selection count of arm a under selector s.
	Counts [][]float64
	// TailMS[s] is the converged (last-quarter) mean frame time.
	TailMS []float64
}

// bvhSpace is the BVH arm's tuning space.
func bvhSpace() (*param.Space, param.Config) {
	space := param.NewSpace(
		param.NewInterval("ctrav", 0.1, 4.0),
		param.NewRatioInt("leaf", 1, 32),
		param.NewRatioInt("bins", 8, 64),
	)
	d := bvh.DefaultParams()
	return space, space.Clamp(param.Config{
		d.TraversalCost / d.IntersectCost, float64(d.LeafSize), float64(d.Bins),
	})
}

// RunStructureChoice executes the X5 experiment with ε-Greedy (10%) and
// Sliding-Window AUC.
func RunStructureChoice(cfg Config) *StructureChoice {
	cfg = cfg.sanitize()
	pl := newPipeline(cfg)
	kdNames := kdtree.BuilderNames()
	arms := append(append([]string{}, kdNames...), "BVH")

	algos := builderAlgorithms()
	bSpace, bInit := bvhSpace()
	algos = append(algos, core.Algorithm{Name: "BVH", Space: bSpace, Init: bInit})

	builders := make([]kdtree.Builder, len(kdNames))
	for i, n := range kdNames {
		b, err := kdtree.NewBuilder(n)
		if err != nil {
			panic(err)
		}
		builders[i] = b
	}
	measure := func(algo int, c param.Config) float64 {
		return timeIt(func() {
			if algo < len(kdNames) {
				pl.RenderFrame(builders[algo], ConfigToParams(kdNames[algo], c))
				return
			}
			p := bvh.DefaultParams()
			p.TraversalCost = c[0]
			p.IntersectCost = 1
			p.LeafSize = int(c[1])
			p.Bins = int(c[2])
			tree := bvh.Build(pl.Tris, p)
			ray.RenderWith(tree, pl.Tris, pl.Cam, pl.Light, pl.Width, pl.Height, pl.Workers)
		})
	}

	res := &StructureChoice{ArmLabels: arms}
	for _, sname := range []string{"egreedy:10", "auc"} {
		counts := make([]float64, len(arms))
		var tails []float64
		for rep := 0; rep < cfg.Reps; rep++ {
			sel, err := nominal.NewByName(sname)
			if err != nil {
				panic(err)
			}
			tuner, err := core.NewTuner(algos, sel, core.DefaultFactory, cfg.Seed+int64(rep))
			if err != nil {
				panic(err)
			}
			var vals []float64
			for i := 0; i < cfg.Frames; i++ {
				vals = append(vals, tuner.Step(measure).Value)
			}
			for a, c := range tuner.Counts() {
				counts[a] += float64(c) / float64(cfg.Reps)
			}
			tails = append(tails, stats.Mean(vals[len(vals)*3/4:]))
		}
		res.SelectorLabels = append(res.SelectorLabels, sname)
		res.Counts = append(res.Counts, counts)
		res.TailMS = append(res.TailMS, stats.Mean(tails))
	}
	return res
}

// RenderFigureX5 writes the acceleration-structure choice table.
func (s *StructureChoice) RenderFigureX5(w io.Writer) *report.Table {
	t := report.NewTable("Extension X5: acceleration-structure choice (4 kD-tree builders + BVH)",
		append([]string{"selector", "tail ms"}, s.ArmLabels...)...)
	for i, sel := range s.SelectorLabels {
		row := []interface{}{sel, s.TailMS[i]}
		for _, c := range s.Counts[i] {
			row = append(row, c)
		}
		t.Addf(row...)
	}
	if w != nil {
		t.Render(w)
	}
	return t
}
