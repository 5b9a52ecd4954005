package search

import (
	"math"
	"math/rand"

	"repro/internal/param"
)

// Speculation tuning for Proposer. The fractions trade exploration
// against exploitation on the speculative (non-primary) proposals only;
// the wrapped strategy's own proposals are never altered.
const (
	// SpeculativeRandomFrac is the probability that a speculative
	// proposal is a uniform random point instead of an incumbent
	// perturbation, so concurrent workers keep exploring even when the
	// incumbent is stuck in a local basin.
	SpeculativeRandomFrac = 0.25
	// SpeculativeSigma is the per-dimension Gaussian perturbation width
	// of a speculative proposal, as a fraction of the parameter range.
	SpeculativeSigma = 0.10
	// speculativeNominalRedraw is the probability that a speculative
	// proposal redraws a nominal dimension uniformly (nominal labels
	// have no distance, so "perturbing" them means resampling).
	speculativeNominalRedraw = 0.3
)

// A Proposal is one configuration handed out by a Proposer. Primary
// marks a genuine strategy proposal: exactly one primary is outstanding
// at any time, and only its report is forwarded to the strategy's
// ask/tell state machine. Speculative proposals (Primary false) exist so
// concurrent callers never block on a sequential strategy; their reports
// update only the proposer-local incumbent.
type Proposal struct {
	Config  param.Config
	Primary bool
}

// A Proposer adapts a sequential ask/tell Strategy to concurrent,
// out-of-order callers. The Strategy interface is a strict alternation —
// one Propose, then exactly one Report — which cannot serve multiple
// trials in flight. The Proposer preserves that contract for the wrapped
// strategy while never refusing a caller: the first Propose after the
// previous primary's report hands out the strategy's genuine next point,
// and every Propose in between fabricates a speculative point by
// perturbing the best configuration known so far (or sampling the space
// uniformly, with probability SpeculativeRandomFrac).
//
// Speculative reports deliberately do not feed the strategy: a simplex
// or annealer told about points it never proposed would corrupt its
// state machine. They do advance the proposer's own incumbent, so later
// speculation exploits speculative discoveries, and callers (the trial
// engine) record them in their global best.
//
// A Proposer is not itself safe for concurrent use; the trial engine
// drives it under its lock.
type Proposer struct {
	strat Strategy
	space *param.Space
	rng   *rand.Rand

	primaryOut  bool         // the strategy's genuine proposal is leased out
	released    param.Config // a primary handed back unmeasured, issued next
	outstanding int          // proposals handed out and not yet reported

	specBest    param.Config // best config seen via speculative reports
	specBestVal float64
}

// NewProposer wraps an already-Started strategy searching the given
// space. A nil space is treated as the empty space. The seed drives only
// the speculative perturbations, never the strategy.
func NewProposer(strat Strategy, space *param.Space, seed int64) *Proposer {
	if strat == nil {
		panic("search: NewProposer with nil strategy")
	}
	if space == nil {
		space = param.NewSpace()
	}
	return &Proposer{
		strat:       strat,
		space:       space,
		rng:         newRand(seed),
		specBestVal: math.Inf(1),
	}
}

// Propose returns the next configuration: the strategy's genuine
// proposal when none is outstanding (a released primary first), a
// speculative point otherwise. It never blocks and never fails.
func (p *Proposer) Propose() Proposal {
	p.outstanding++
	if !p.primaryOut {
		p.primaryOut = true
		if cfg := p.released; cfg != nil {
			p.released = nil
			return Proposal{Config: cfg, Primary: true}
		}
		return Proposal{Config: p.strat.Propose(), Primary: true}
	}
	return Proposal{Config: p.speculate()}
}

// ProposeN returns n proposals at once; at most the first is primary.
func (p *Proposer) ProposeN(n int) []Proposal {
	out := make([]Proposal, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, p.Propose())
	}
	return out
}

// Report completes one proposal with its measured value (lower is
// better; a penalty for failed trials). Primary reports are forwarded to
// the wrapped strategy, restoring its strict alternation; speculative
// reports update only the proposer-local incumbent.
func (p *Proposer) Report(pr Proposal, value float64) {
	if p.outstanding > 0 {
		p.outstanding--
	}
	if pr.Primary {
		if p.primaryOut {
			p.primaryOut = false
			p.strat.Report(pr.Config, value)
		}
		return
	}
	if value < p.specBestVal {
		p.specBestVal = value
		p.specBest = pr.Config.Clone()
	}
}

// Release hands back a proposal that was never measured, without a
// value. A primary goes back to the proposer, whose strategy still waits
// for its report: the next Propose re-issues the same configuration as
// the primary. A speculative proposal is simply forgotten.
func (p *Proposer) Release(pr Proposal) {
	if p.outstanding > 0 {
		p.outstanding--
	}
	if pr.Primary && p.primaryOut {
		p.primaryOut = false
		p.released = pr.Config
	}
}

// Outstanding returns the number of unreported proposals.
func (p *Proposer) Outstanding() int { return p.outstanding }

// Holds reports whether the wrapped strategy awaits the report of a
// proposal it made: the primary is out, or was handed back and will be
// issued again.
func (p *Proposer) Holds() bool { return p.primaryOut || p.released != nil }

// Strategy exposes the wrapped strategy (for inspection).
func (p *Proposer) Strategy() Strategy { return p.strat }

// Best returns the best configuration and value observed through this
// proposer, merging the strategy's incumbent with speculative reports.
func (p *Proposer) Best() (param.Config, float64) {
	cfg, val := p.strat.Best()
	if p.specBest != nil && p.specBestVal < val {
		return p.specBest.Clone(), p.specBestVal
	}
	return cfg, val
}

// base is the point speculation perturbs: the best known configuration,
// falling back to the space center before any report.
func (p *Proposer) base() param.Config {
	cfg, _ := p.Best()
	if cfg == nil {
		return p.space.Center()
	}
	return cfg
}

// speculate fabricates a configuration near the incumbent (see perturb).
func (p *Proposer) speculate() param.Config {
	return perturb(p.rng, p.space, p.base())
}

// perturb is the shared speculative-proposal generator: a Gaussian
// perturbation of SpeculativeSigma × range of base per metric dimension,
// a uniform redraw of nominal dimensions with a small probability, and —
// with probability SpeculativeRandomFrac — a fully random point. The
// random draws happen in a fixed order, so equal RNG states yield equal
// proposals.
func perturb(rng *rand.Rand, space *param.Space, base param.Config) param.Config {
	if space.Dim() == 0 {
		return param.Config{}
	}
	if rng.Float64() < SpeculativeRandomFrac {
		return space.Random(rng)
	}
	out := base.Clone()
	for i := 0; i < space.Dim(); i++ {
		prm := space.Param(i)
		lo, hi := prm.Lo(), prm.Hi()
		if prm.Class() == param.Nominal {
			if rng.Float64() < speculativeNominalRedraw {
				out[i] = prm.Clamp(lo + rng.Float64()*(hi-lo))
			}
			continue
		}
		if span := hi - lo; span > 0 {
			out[i] += rng.NormFloat64() * SpeculativeSigma * span
		}
	}
	return space.Clamp(out)
}
