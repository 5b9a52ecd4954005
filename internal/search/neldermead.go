package search

import (
	"math"
	"sort"

	"repro/internal/param"
)

// Nelder-Mead transition coefficients (standard values from Nelder & Mead
// 1965): reflection α, expansion γ, contraction ρ, shrink σ.
const (
	nmAlpha = 1.0
	nmGamma = 2.0
	nmRho   = 0.5
	nmSigma = 0.5
)

// nmPhase is the state of the downhill-simplex state machine. The paper
// describes Nelder-Mead as "a small state-machine of simplex transitions";
// the ask/tell interface makes that state machine explicit.
type nmPhase int

const (
	nmInit        nmPhase = iota // evaluating the initial simplex vertices
	nmReflect                    // waiting for the reflection point value
	nmExpand                     // waiting for the expansion point value
	nmContractOut                // waiting for the outside contraction value
	nmContractIn                 // waiting for the inside contraction value
	nmShrink                     // evaluating shrunk vertices one at a time
)

type nmVertex struct {
	x param.Config
	f float64
}

// NelderMead is the downhill simplex method, the phase-one strategy used in
// both of the paper's case studies. It maintains a simplex of dim+1
// vertices and moves it through reflection, expansion, contraction, and
// shrink transitions. It requires a metric space: spaces containing nominal
// (or ordinal) parameters are rejected, because the simplex arithmetic
// needs distances and directions.
type NelderMead struct {
	recorder
	space   *param.Space
	simplex []nmVertex
	phase   nmPhase
	idx     int // vertex being evaluated during nmInit / nmShrink

	pending  param.Config // point awaiting a Report
	centroid param.Config // centroid of all but the worst vertex
	xr       param.Config // reflection point
	fr       float64      // reflection value

	// Tol is the convergence tolerance on the relative spread of vertex
	// values; the default is 1e-4.
	Tol float64
}

// NewNelderMead creates an unstarted Nelder-Mead strategy with the default
// tolerance.
func NewNelderMead() *NelderMead { return &NelderMead{Tol: 1e-4} }

// Name returns "nelder-mead".
func (n *NelderMead) Name() string { return "nelder-mead" }

// Supports accepts only spaces in which every dimension has a distance
// (Interval or Ratio). A space with zero dimensions is accepted and treated
// as trivially converged.
func (n *NelderMead) Supports(space *param.Space) bool {
	return space != nil && space.MetricOnly()
}

// Start builds the initial simplex around the initial configuration: the
// initial point plus one vertex per dimension displaced by 10% of that
// dimension's range (stepping inward when at the upper bound).
func (n *NelderMead) Start(space *param.Space, init param.Config) error {
	c, err := prepStart(space, init)
	if err != nil {
		return err
	}
	if !n.Supports(space) {
		return errUnsupported(n, space)
	}
	n.reset()
	n.space = space
	d := space.Dim()
	n.simplex = make([]nmVertex, 0, d+1)
	n.simplex = append(n.simplex, nmVertex{x: c.Clone(), f: math.NaN()})
	for i := 0; i < d; i++ {
		p := space.Param(i)
		step := (p.Hi() - p.Lo()) * 0.10
		if step == 0 {
			step = 1
		}
		v := c.Clone()
		moved := p.Clamp(v[i] + step)
		if moved == v[i] {
			moved = p.Clamp(v[i] - step)
		}
		v[i] = moved
		n.simplex = append(n.simplex, nmVertex{x: v, f: math.NaN()})
	}
	n.phase = nmInit
	n.idx = 0
	n.pending = nil
	return nil
}

// Propose returns the next point the simplex needs evaluated.
func (n *NelderMead) Propose() param.Config {
	n.mustStarted("NelderMead.Propose")
	if n.space.Dim() == 0 {
		return param.Config{}
	}
	switch n.phase {
	case nmInit, nmShrink:
		n.pending = n.simplex[n.idx].x.Clone()
	case nmReflect:
		n.computeCentroid()
		n.xr = n.combine(n.centroid, n.worst().x, nmAlpha)
		n.pending = n.xr.Clone()
	case nmExpand:
		xe := n.combine(n.centroid, n.worst().x, nmGamma)
		n.pending = xe
	case nmContractOut:
		// Outside contraction: centroid + ρ·(xr − centroid).
		xc := n.blend(n.centroid, n.xr, nmRho)
		n.pending = xc
	case nmContractIn:
		// Inside contraction: centroid − ρ·(centroid − worst).
		xc := n.blend(n.centroid, n.worst().x, nmRho)
		n.pending = xc
	}
	return n.pending.Clone()
}

// Report feeds a measured value back into the simplex state machine.
func (n *NelderMead) Report(c param.Config, f float64) {
	n.mustStarted("NelderMead.Report")
	n.record(c, f)
	if n.space.Dim() == 0 {
		return
	}
	switch n.phase {
	case nmInit:
		n.simplex[n.idx].f = f
		n.idx++
		if n.idx >= len(n.simplex) {
			n.sortSimplex()
			n.phase = nmReflect
		}
	case nmShrink:
		n.simplex[n.idx].f = f
		n.idx++
		if n.idx >= len(n.simplex) {
			n.sortSimplex()
			n.phase = nmReflect
		}
	case nmReflect:
		// Recomputed here, not only in Propose: a resumed engine replays
		// journaled reports without the proposals that preceded them,
		// and the next phase's proposal needs the centroid and xr. Both
		// reuse their buffers, so the live path allocates no more.
		n.computeCentroid()
		n.xr = append(n.xr[:0], c...)
		n.fr = f
		best, secondWorst := n.simplex[0].f, n.simplex[len(n.simplex)-2].f
		switch {
		case f < best:
			n.phase = nmExpand
		case f < secondWorst:
			n.replaceWorst(c, f)
			n.phase = nmReflect
		case f < n.worst().f:
			n.phase = nmContractOut
		default:
			n.phase = nmContractIn
		}
	case nmExpand:
		if f < n.fr {
			n.replaceWorst(c, f)
		} else {
			n.replaceWorst(n.xr, n.fr)
		}
		n.phase = nmReflect
	case nmContractOut:
		if f <= n.fr {
			n.replaceWorst(c, f)
			n.phase = nmReflect
		} else {
			n.startShrink()
		}
	case nmContractIn:
		if f < n.worst().f {
			n.replaceWorst(c, f)
			n.phase = nmReflect
		} else {
			n.startShrink()
		}
	}
}

// Converged reports whether the vertex values have collapsed to within the
// relative tolerance, or the vertices themselves have collapsed onto a
// single grid point (which happens on discrete dimensions).
func (n *NelderMead) Converged() bool {
	if !n.hasSpace {
		return false
	}
	if n.space.Dim() == 0 {
		return n.evals > 0
	}
	if n.phase == nmInit {
		return false
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range n.simplex {
		if math.IsNaN(v.f) {
			return false
		}
		lo = math.Min(lo, v.f)
		hi = math.Max(hi, v.f)
	}
	if hi-lo <= n.Tol*(math.Abs(lo)+n.Tol) {
		return true
	}
	for i := 1; i < len(n.simplex); i++ {
		if !n.simplex[i].x.Equal(n.simplex[0].x) {
			return false
		}
	}
	return true
}

// Simplex returns a copy of the current simplex configurations, ordered
// best to worst (primarily useful for tests and diagnostics).
func (n *NelderMead) Simplex() []param.Config {
	out := make([]param.Config, len(n.simplex))
	for i, v := range n.simplex {
		out[i] = v.x.Clone()
	}
	return out
}

func (n *NelderMead) worst() *nmVertex { return &n.simplex[len(n.simplex)-1] }

func (n *NelderMead) sortSimplex() {
	sort.SliceStable(n.simplex, func(i, j int) bool {
		fi, fj := n.simplex[i].f, n.simplex[j].f
		if math.IsNaN(fj) {
			return !math.IsNaN(fi)
		}
		if math.IsNaN(fi) {
			return false
		}
		return fi < fj
	})
}

func (n *NelderMead) replaceWorst(x param.Config, f float64) {
	w := n.worst()
	w.x = x.Clone()
	w.f = f
	n.sortSimplex()
}

func (n *NelderMead) computeCentroid() {
	d := n.space.Dim()
	if len(n.centroid) != d {
		n.centroid = make(param.Config, d)
	}
	cen := n.centroid
	clear(cen)
	for _, v := range n.simplex[:len(n.simplex)-1] {
		for i := 0; i < d; i++ {
			cen[i] += v.x[i]
		}
	}
	for i := 0; i < d; i++ {
		cen[i] /= float64(len(n.simplex) - 1)
	}
}

// combine returns clamp(centroid + coeff·(centroid − away)).
func (n *NelderMead) combine(centroid, away param.Config, coeff float64) param.Config {
	d := n.space.Dim()
	out := make(param.Config, d)
	for i := 0; i < d; i++ {
		out[i] = centroid[i] + coeff*(centroid[i]-away[i])
	}
	return n.space.Clamp(out)
}

// blend returns clamp(from + t·(to − from)).
func (n *NelderMead) blend(from, to param.Config, t float64) param.Config {
	d := n.space.Dim()
	out := make(param.Config, d)
	for i := 0; i < d; i++ {
		out[i] = from[i] + t*(to[i]-from[i])
	}
	return n.space.Clamp(out)
}

// startShrink moves every vertex except the best halfway toward the best
// and schedules their re-evaluation.
func (n *NelderMead) startShrink() {
	best := n.simplex[0].x
	for i := 1; i < len(n.simplex); i++ {
		n.simplex[i].x = n.blend(best, n.simplex[i].x, nmSigma)
		n.simplex[i].f = math.NaN()
	}
	n.phase = nmShrink
	n.idx = 1
}
