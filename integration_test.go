package repro

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/exp"
	"repro/internal/kdtree"
	"repro/internal/nominal"
	"repro/internal/param"
	"repro/internal/ray"
	"repro/internal/scenegen"
	"repro/internal/strmatch"
	"repro/internal/wisdom"
)

// TestEndToEndStringMatching drives the complete case study 1 stack —
// corpus generation, the eight matchers, parallel search, the two-phase
// tuner — and checks the tuner lands on one of the fast filter-based
// algorithms while producing correct search results throughout.
func TestEndToEndStringMatching(t *testing.T) {
	text := corpus.Bible(512<<10, 7)
	pattern := []byte(corpus.QueryPhrase)
	wantMatches := bytes.Count(text, pattern)
	if wantMatches == 0 {
		t.Fatal("corpus setup broken")
	}

	names := strmatch.Names()
	matchers := make([]strmatch.Matcher, len(names))
	algos := make([]core.Algorithm, len(names))
	for i, n := range names {
		m, err := strmatch.New(n)
		if err != nil {
			t.Fatal(err)
		}
		matchers[i] = m
		algos[i] = core.Algorithm{Name: n}
	}
	tuner, err := core.NewTuner(algos, nominal.NewEpsilonGreedy(0.10), nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	slowSet := map[string]bool{"Knuth-Morris-Pratt": true, "ShiftOr": true}
	measure := func(algo int, _ param.Config) float64 {
		start := nowNanos()
		positions := strmatch.Run(matchers[algo], pattern, text, 2)
		elapsed := nowNanos() - start
		// Every measured operation must also be a correct one.
		if len(positions) != wantMatches {
			t.Fatalf("%s found %d matches, want %d", names[algo], len(positions), wantMatches)
		}
		return float64(elapsed) / 1e6
	}
	tuner.Run(60, measure)
	best, _, _ := tuner.Best()
	if slowSet[names[best]] {
		t.Errorf("tuner picked a known-slow matcher: %s (counts %v)", names[best], tuner.Counts())
	}
}

// TestEndToEndRaytracing drives case study 2 end to end: procedural
// scene, combined two-phase tuning over the four builders, real frames.
func TestEndToEndRaytracing(t *testing.T) {
	scene := scenegen.Cathedral(1)
	pl := &ray.Pipeline{
		Tris:  scene.Triangles,
		Cam:   ray.Camera{Eye: scene.Eye, LookAt: scene.LookAt, FOV: 65},
		Light: scene.Light,
		Width: 48, Height: 36, Workers: 2,
	}
	names := kdtree.BuilderNames()
	builders := make([]kdtree.Builder, len(names))
	algos := make([]core.Algorithm, len(names))
	for i, n := range names {
		b, err := kdtree.NewBuilder(n)
		if err != nil {
			t.Fatal(err)
		}
		builders[i] = b
		space, init := exp.BuilderSpace(n)
		algos[i] = core.Algorithm{Name: n, Space: space, Init: init}
	}
	tuner, err := core.NewTuner(algos, nominal.NewSlidingWindowAUC(), core.DefaultFactory, 9)
	if err != nil {
		t.Fatal(err)
	}
	var lastMean float64
	measure := func(algo int, cfg param.Config) float64 {
		start := nowNanos()
		frame, _ := pl.RenderFrame(builders[algo], exp.ConfigToParams(names[algo], cfg))
		lastMean = frame.MeanIntensity()
		return float64(nowNanos()-start) / 1e6
	}
	tuner.Run(16, measure)
	if tuner.Iterations() != 16 {
		t.Fatal("tuning loop did not run")
	}
	if lastMean <= 0 {
		t.Error("rendered frames are black")
	}
	for i, c := range tuner.Counts() {
		if c == 0 {
			t.Errorf("builder %s never ran", names[i])
		}
	}
}

// TestEndToEndWisdomRoundTrip ties the tuner to the wisdom store the way
// a real application would across two runs.
func TestEndToEndWisdomRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wisdom.json")
	key := wisdom.Key("integration", "demo")

	runOnce := func(init param.Config) (string, param.Config, float64) {
		algos := []core.Algorithm{
			{Name: "flat"},
			{Name: "tunable", Space: param.NewSpace(param.NewInterval("x", 0, 10)), Init: init},
		}
		m := func(algo int, cfg param.Config) float64 {
			if algo == 0 {
				return 9
			}
			d := cfg[0] - 6
			return 3 + d*d
		}
		tuner, err := core.NewTuner(algos, nominal.NewEpsilonGreedy(0.15), nil, 2)
		if err != nil {
			t.Fatal(err)
		}
		tuner.Run(150, m)
		best, cfg, val := tuner.Best()
		return algos[best].Name, cfg, val
	}

	// First run: learn and persist.
	store, err := wisdom.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	name, cfg, val := runOnce(param.Config{0})
	store.Record(key, name, cfg, val)
	if err := store.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	// Second run: start from the persisted configuration.
	again, err := wisdom.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := again.Lookup(key)
	if !ok || e.Algorithm != "tunable" {
		t.Fatalf("wisdom lost the result: %+v ok=%v", e, ok)
	}
	name2, _, val2 := runOnce(param.Config(e.Config))
	if name2 != "tunable" || val2 > val+0.5 {
		t.Errorf("warm start regressed: %s %g vs cold %g", name2, val2, val)
	}
}

// nowNanos is a minimal monotonic-ish clock helper for the integration
// measurements.
func nowNanos() int64 { return time.Now().UnixNano() }
