package search

import (
	"errors"
	"math"
	"testing"

	"repro/internal/param"
)

// quadSpace is a 2-D continuous metric space.
func quadSpace() *param.Space {
	return param.NewSpace(
		param.NewInterval("x", -10, 10),
		param.NewInterval("y", -10, 10),
	)
}

// quad is a convex bowl with minimum 1.0 at (3, -2).
func quad(c param.Config) float64 {
	dx, dy := c[0]-3, c[1]+2
	return 1.0 + dx*dx + dy*dy
}

// discreteSpace is a small, fully discrete, metric space.
func discreteSpace() *param.Space {
	return param.NewSpace(
		param.NewRatioInt("a", 0, 6),
		param.NewRatioInt("b", 0, 6),
	)
}

// discreteObj has its minimum 0 at (5, 1).
func discreteObj(c param.Config) float64 {
	da, db := c[0]-5, c[1]-1
	return da*da + db*db
}

func nominalSpace() *param.Space {
	return param.NewSpace(param.NewNominal("algo", "a", "b", "c"))
}

// drive runs the ask/tell loop for up to n iterations.
func drive(t *testing.T, s Strategy, space *param.Space, obj func(param.Config) float64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		c := s.Propose()
		if !space.Valid(c) {
			t.Fatalf("%s proposed invalid config %v at iteration %d", s.Name(), c, i)
		}
		s.Report(c, obj(c))
	}
}

func TestMetricStrategiesMinimizeQuadratic(t *testing.T) {
	cases := []struct {
		s    Strategy
		iter int
		tol  float64
	}{
		{NewNelderMead(), 200, 0.05},
		{NewParticleSwarm(10, 1), 600, 0.05},
		{NewDiffEvo(12, 1), 600, 0.05},
		{NewGenetic(12, 1), 800, 0.3},
		{NewRandom(1), 2000, 1.0},
	}
	for _, tc := range cases {
		t.Run(tc.s.Name(), func(t *testing.T) {
			space := quadSpace()
			if err := tc.s.Start(space, param.Config{-8, 8}); err != nil {
				t.Fatal(err)
			}
			drive(t, tc.s, space, quad, tc.iter)
			best, val := tc.s.Best()
			if best == nil {
				t.Fatal("no best after search")
			}
			if val > 1.0+tc.tol {
				t.Errorf("%s best value %g, want ≤ %g (config %v)", tc.s.Name(), val, 1.0+tc.tol, best)
			}
			if tc.s.Evaluations() != tc.iter {
				t.Errorf("Evaluations = %d, want %d", tc.s.Evaluations(), tc.iter)
			}
		})
	}
}

func TestDiscreteStrategiesFindOptimum(t *testing.T) {
	cases := []struct {
		s    Strategy
		iter int
	}{
		{NewHillClimb(), 200},
		{NewExhaustive(), 49},
		{NewAnneal(7), 400},
	}
	for _, tc := range cases {
		t.Run(tc.s.Name(), func(t *testing.T) {
			space := discreteSpace()
			if err := tc.s.Start(space, param.Config{0, 6}); err != nil {
				t.Fatal(err)
			}
			drive(t, tc.s, space, discreteObj, tc.iter)
			best, val := tc.s.Best()
			if val != 0 {
				t.Errorf("%s best %g at %v, want 0 at (5,1)", tc.s.Name(), val, best)
			}
		})
	}
}

func TestNominalRejection(t *testing.T) {
	space := nominalSpace()
	rejecting := []Strategy{
		NewNelderMead(), NewHillClimb(), NewAnneal(1),
		NewParticleSwarm(4, 1), NewDiffEvo(4, 1),
	}
	for _, s := range rejecting {
		if s.Supports(space) {
			t.Errorf("%s claims to support a nominal space", s.Name())
		}
		err := s.Start(space, nil)
		if err == nil {
			t.Errorf("%s.Start on nominal space did not fail", s.Name())
			continue
		}
		var use *UnsupportedSpaceError
		if !errors.As(err, &use) {
			t.Errorf("%s.Start error %v is not UnsupportedSpaceError", s.Name(), err)
		} else if use.Strategy != s.Name() {
			t.Errorf("error names strategy %q, want %q", use.Strategy, s.Name())
		}
	}
	accepting := []Strategy{NewGenetic(4, 1), NewRandom(1), NewExhaustive(), NewFixed()}
	for _, s := range accepting {
		if !s.Supports(space) {
			t.Errorf("%s should support a nominal space", s.Name())
		}
		if err := s.Start(space, nil); err != nil {
			t.Errorf("%s.Start on nominal space failed: %v", s.Name(), err)
		}
	}
}

func TestGeneticOnPureNominalActsLikeSearch(t *testing.T) {
	// On a single nominal parameter the GA degenerates to (elitist) random
	// search — the paper's Section III-E observation. It must still find
	// the best label eventually.
	space := nominalSpace()
	obj := func(c param.Config) float64 { return []float64{5, 1, 9}[int(c[0])] }
	g := NewGenetic(6, 3)
	if err := g.Start(space, nil); err != nil {
		t.Fatal(err)
	}
	drive(t, g, space, obj, 120)
	best, val := g.Best()
	if val != 1 || int(best[0]) != 1 {
		t.Errorf("GA best %v=%g, want label index 1 value 1", best, val)
	}
}

func TestExhaustiveSweep(t *testing.T) {
	space := discreteSpace() // 49 configs
	e := NewExhaustive()
	if err := e.Start(space, param.Config{3, 3}); err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int]bool{}
	first := e.Propose()
	if first[0] != 3 || first[1] != 3 {
		t.Errorf("sweep should start at the initial config, got %v", first)
	}
	for i := 0; i < 49; i++ {
		if e.Converged() {
			t.Fatalf("converged after only %d evaluations", i)
		}
		c := e.Propose()
		key := [2]int{int(c[0]), int(c[1])}
		if seen[key] {
			t.Fatalf("config %v proposed twice during sweep", c)
		}
		seen[key] = true
		e.Report(c, discreteObj(c))
	}
	if !e.Converged() {
		t.Error("not converged after full sweep")
	}
	if e.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", e.Remaining())
	}
	if len(seen) != 49 {
		t.Errorf("visited %d configs, want 49", len(seen))
	}
	// After the sweep the incumbent is proposed.
	c := e.Propose()
	if discreteObj(c) != 0 {
		t.Errorf("post-sweep proposal %v is not the optimum", c)
	}
}

func TestExhaustiveRejectsContinuous(t *testing.T) {
	e := NewExhaustive()
	if e.Supports(quadSpace()) {
		t.Error("exhaustive claims to support a continuous space")
	}
	if err := e.Start(quadSpace(), nil); err == nil {
		t.Error("Start on continuous space did not fail")
	}
}

func TestFixedStrategy(t *testing.T) {
	space := quadSpace()
	f := NewFixed()
	if err := f.Start(space, param.Config{1, 1}); err != nil {
		t.Fatal(err)
	}
	if f.Converged() {
		t.Error("converged before any report")
	}
	for i := 0; i < 5; i++ {
		c := f.Propose()
		if c[0] != 1 || c[1] != 1 {
			t.Fatalf("fixed proposed %v, want (1,1)", c)
		}
		f.Report(c, quad(c))
	}
	if !f.Converged() {
		t.Error("fixed not converged after reports")
	}
	_, val := f.Best()
	if val != quad(param.Config{1, 1}) {
		t.Errorf("best value %g wrong", val)
	}
}

func TestFixedDefaultsToCenter(t *testing.T) {
	f := NewFixed()
	if err := f.Start(quadSpace(), nil); err != nil {
		t.Fatal(err)
	}
	c := f.Propose()
	if c[0] != 0 || c[1] != 0 {
		t.Errorf("nil init should use the center, got %v", c)
	}
}

func TestNelderMeadConvergence(t *testing.T) {
	space := quadSpace()
	nm := NewNelderMead()
	if err := nm.Start(space, param.Config{-8, 8}); err != nil {
		t.Fatal(err)
	}
	iters := 0
	for !nm.Converged() && iters < 2000 {
		c := nm.Propose()
		nm.Report(c, quad(c))
		iters++
	}
	if !nm.Converged() {
		t.Fatalf("did not converge in %d iterations", iters)
	}
	best, val := nm.Best()
	if math.Abs(best[0]-3) > 0.1 || math.Abs(best[1]+2) > 0.1 {
		t.Errorf("converged to %v (val %g), want near (3,-2)", best, val)
	}
}

func TestNelderMeadOnIntegerGrid(t *testing.T) {
	// Integer snapping must not break the simplex machine.
	space := discreteSpace()
	nm := NewNelderMead()
	if err := nm.Start(space, param.Config{0, 0}); err != nil {
		t.Fatal(err)
	}
	drive(t, nm, space, discreteObj, 150)
	_, val := nm.Best()
	if val > 2 {
		t.Errorf("NM on grid: best %g, want ≤ 2", val)
	}
}

func TestNelderMeadSimplexAccessor(t *testing.T) {
	space := quadSpace()
	nm := NewNelderMead()
	if err := nm.Start(space, nil); err != nil {
		t.Fatal(err)
	}
	sx := nm.Simplex()
	if len(sx) != space.Dim()+1 {
		t.Fatalf("simplex has %d vertices, want %d", len(sx), space.Dim()+1)
	}
	for _, v := range sx {
		if !space.Valid(v) {
			t.Errorf("simplex vertex %v invalid", v)
		}
	}
}

// TestNelderMeadReportOnlyReplay: a strategy fed the reports of a live
// run, without the proposals that preceded them — as a resumed engine
// replays its journal — proposes what the live run proposes next. The
// reflection's report leads to an expansion, whose proposal needs the
// centroid and reflection point that only Propose used to compute.
func TestNelderMeadReportOnlyReplay(t *testing.T) {
	space := param.NewSpace(param.NewRatio("a", 1, 10), param.NewRatio("b", 1, 10))
	f := func(c param.Config) float64 { return c[0] + 2*c[1] }
	live, replay := NewNelderMead(), NewNelderMead()
	for _, nm := range []*NelderMead{live, replay} {
		if err := nm.Start(space, param.Config{5, 5}); err != nil {
			t.Fatal(err)
		}
	}
	// Three initial vertices, then one reflection point.
	for i := 0; i < 4; i++ {
		c := live.Propose()
		live.Report(c, f(c))
		replay.Report(c, f(c))
	}
	if live.phase != nmExpand {
		t.Fatalf("live run in phase %d after the reflection, want expansion", live.phase)
	}
	for i := 0; i < 20; i++ {
		want, got := live.Propose(), replay.Propose()
		if !got.Equal(want) {
			t.Fatalf("proposal %d after replay: %v, live %v", i, got, want)
		}
		live.Report(want, f(want))
		replay.Report(got, f(got))
	}
}

func TestHillClimbConvergesAtLocalMin(t *testing.T) {
	space := discreteSpace()
	h := NewHillClimb()
	if err := h.Start(space, param.Config{5, 1}); err != nil {
		t.Fatal(err)
	}
	// Starting at the optimum: evaluate it plus the 4 neighbours, converge.
	for i := 0; i < 5; i++ {
		c := h.Propose()
		h.Report(c, discreteObj(c))
	}
	if !h.Converged() {
		t.Error("hill climb at optimum did not converge after ring")
	}
	// Post-convergence it must keep proposing the optimum.
	c := h.Propose()
	if discreteObj(c) != 0 {
		t.Errorf("post-convergence proposal %v not the optimum", c)
	}
}

func TestAnnealCoolsAndConverges(t *testing.T) {
	space := discreteSpace()
	a := NewAnneal(11)
	a.Cooling = 0.5 // fast cooling for test brevity
	if err := a.Start(space, param.Config{0, 0}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50 && !a.Converged(); i++ {
		c := a.Propose()
		a.Report(c, discreteObj(c))
	}
	if !a.Converged() {
		t.Error("anneal did not converge with fast cooling")
	}
}

func TestStrategiesBeforeStartPanic(t *testing.T) {
	for _, s := range []Strategy{NewNelderMead(), NewHillClimb(), NewAnneal(1), NewParticleSwarm(4, 1), NewDiffEvo(4, 1), NewGenetic(4, 1), NewRandom(1), NewExhaustive(), NewFixed()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s.Propose before Start did not panic", s.Name())
				}
			}()
			s.Propose()
		}()
	}
}

func TestBestBeforeAnyReport(t *testing.T) {
	nm := NewNelderMead()
	if err := nm.Start(quadSpace(), nil); err != nil {
		t.Fatal(err)
	}
	c, v := nm.Best()
	if c != nil || !math.IsInf(v, 1) {
		t.Errorf("Best before reports = (%v, %g), want (nil, +Inf)", c, v)
	}
}

func TestNewByName(t *testing.T) {
	for _, name := range Names() {
		f, err := NewByName(name, 42)
		if err != nil {
			t.Errorf("NewByName(%q) failed: %v", name, err)
			continue
		}
		s := f()
		if s.Name() != name {
			t.Errorf("factory for %q built %q", name, s.Name())
		}
		// Factories must build independent instances.
		if f() == s {
			t.Errorf("factory for %q returned a shared instance", name)
		}
	}
	if _, err := NewByName("nope", 0); err == nil {
		t.Error("unknown name did not error")
	}
}

func TestStartArityMismatch(t *testing.T) {
	nm := NewNelderMead()
	if err := nm.Start(quadSpace(), param.Config{1}); err == nil {
		t.Error("arity mismatch init did not error")
	}
}

func TestEmptySpace(t *testing.T) {
	// A zero-dimensional space (algorithm without tunables) must work for
	// strategies that support it.
	empty := param.NewSpace()
	for _, s := range []Strategy{NewFixed(), NewNelderMead(), NewExhaustive()} {
		if err := s.Start(empty, nil); err != nil {
			t.Errorf("%s.Start on empty space failed: %v", s.Name(), err)
			continue
		}
		c := s.Propose()
		if len(c) != 0 {
			t.Errorf("%s proposed non-empty config %v on empty space", s.Name(), c)
		}
		s.Report(c, 5)
		if !s.Converged() {
			t.Errorf("%s not converged on empty space after one report", s.Name())
		}
	}
}

func TestUnsupportedSpaceErrorMessage(t *testing.T) {
	err := &UnsupportedSpaceError{Strategy: "nelder-mead", Reason: "nominal things"}
	want := "search: nelder-mead cannot search nominal things"
	if err.Error() != want {
		t.Errorf("Error() = %q, want %q", err.Error(), want)
	}
}

// Rosenbrock valley: a harder test exercising expansion/contraction/shrink
// paths of Nelder-Mead.
func TestNelderMeadRosenbrock(t *testing.T) {
	space := param.NewSpace(
		param.NewInterval("x", -2, 2),
		param.NewInterval("y", -1, 3),
	)
	rosen := func(c param.Config) float64 {
		x, y := c[0], c[1]
		return 100*(y-x*x)*(y-x*x) + (1-x)*(1-x)
	}
	nm := NewNelderMead()
	nm.Tol = 1e-8
	if err := nm.Start(space, param.Config{-1.2, 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000 && !nm.Converged(); i++ {
		c := nm.Propose()
		nm.Report(c, rosen(c))
	}
	_, val := nm.Best()
	if val > 0.01 {
		t.Errorf("Rosenbrock best %g, want < 0.01", val)
	}
}

func TestAnnealAcceptsUphillEarly(t *testing.T) {
	// With a very high temperature, annealing should accept worse moves and
	// therefore wander; with temperature ~0 it must behave greedily. We
	// check the greedy extreme: current never worsens.
	space := discreteSpace()
	a := NewAnneal(5)
	a.Temp = 1e-12
	a.MinTemp = 1e-300
	if err := a.Start(space, param.Config{3, 3}); err != nil {
		t.Fatal(err)
	}
	c0 := a.Propose()
	a.Report(c0, discreteObj(c0))
	cur := discreteObj(c0)
	for i := 0; i < 100; i++ {
		c := a.Propose()
		v := discreteObj(c)
		a.Report(c, v)
		if v < cur {
			cur = v
		}
		// a.cur's value can be read only indirectly: the next proposal is a
		// neighbour of the accepted point, so just assert Best never
		// exceeds the running minimum.
		if _, bv := a.Best(); bv > cur {
			t.Fatalf("best %g exceeds running min %g", bv, cur)
		}
	}
}

func TestHookeJeevesMinimizesQuadratic(t *testing.T) {
	space := quadSpace()
	h := NewHookeJeeves()
	if err := h.Start(space, param.Config{-8, 8}); err != nil {
		t.Fatal(err)
	}
	iters := 0
	for !h.Converged() && iters < 1500 {
		c := h.Propose()
		if !space.Valid(c) {
			t.Fatalf("invalid proposal %v", c)
		}
		h.Report(c, quad(c))
		iters++
	}
	if !h.Converged() {
		t.Fatalf("did not converge in %d iterations", iters)
	}
	best, val := h.Best()
	if val > 1.01 {
		t.Errorf("best %g at %v, want ≈ 1 at (3,-2)", val, best)
	}
}

func TestHookeJeevesOnIntegerGrid(t *testing.T) {
	space := discreteSpace()
	h := NewHookeJeeves()
	if err := h.Start(space, param.Config{0, 6}); err != nil {
		t.Fatal(err)
	}
	drive(t, h, space, discreteObj, 120)
	_, val := h.Best()
	if val > 1 {
		t.Errorf("grid best %g, want ≤ 1", val)
	}
}

func TestHookeJeevesRejectsNominal(t *testing.T) {
	h := NewHookeJeeves()
	if h.Supports(nominalSpace()) {
		t.Error("hooke-jeeves claims nominal support")
	}
	if err := h.Start(nominalSpace(), nil); err == nil {
		t.Error("Start on nominal space did not fail")
	}
}

func TestHookeJeevesEmptySpace(t *testing.T) {
	h := NewHookeJeeves()
	if err := h.Start(param.NewSpace(), nil); err != nil {
		t.Fatal(err)
	}
	c := h.Propose()
	h.Report(c, 1)
	if !h.Converged() {
		t.Error("empty space not converged after one report")
	}
}
