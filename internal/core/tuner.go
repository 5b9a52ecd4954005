// Package core implements the paper's primary contribution: a two-phase
// online autotuner for search spaces containing algorithmic choice.
//
// The tuning problem (Section III of Pfaffe et al.) is
//
//	C_opt = argmin_{A ∈ 𝒜, C ∈ T_A} m_A(C)
//
// where 𝒜 is a set of algorithms and T_A the (per-algorithm) numeric
// parameter space. Each tuning iteration applies the two phases in reverse
// order: a phase-two nominal strategy (package nominal) selects an
// algorithm A, then that algorithm's own phase-one strategy (package
// search; the paper uses Nelder-Mead) proposes a configuration C_i. The
// application runs A with C_i, measures it, and reports the sample
// m_{A,i} back through the tuner, which feeds both levels.
//
// Every algorithm owns an independent phase-one strategy instance, so
// tuning progress accumulates on all algorithms simultaneously as the
// selector switches between them — the behaviour visible in the paper's
// Figure 6.
//
// Tuner is the package's one tuner type. A single caller drives the
// loop through Step and Run, or through the ask/tell pair Next/Observe;
// many callers with measurements in flight at once lease ticketed
// trials from the same tuner (Lease, LeaseN) and complete them in any
// order. Both ways share one decision state, one option set
// (WithGuard, WithCheckpoint, WithDriftWatchdog, WithoutHistory,
// WithLeaseTimeout, WithMaxInFlight) and one checkpoint journal, whose
// one replay step resumes a single caller's run exactly.
package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/checkpoint"
	"repro/internal/guard"
	"repro/internal/nominal"
	"repro/internal/param"
	"repro/internal/search"
	"repro/internal/xrand"
)

// An Algorithm is one alternative implementation of the tuned operation,
// together with its numeric tuning-parameter space and an optional
// hand-crafted initial configuration (the raytracing case study starts
// every construction algorithm from a best-practices configuration).
type Algorithm struct {
	// Name identifies the algorithm, e.g. "wald-havran".
	Name string
	// Space is the algorithm's own tuning-parameter space T_A. A nil Space
	// is treated as the empty space (no tunable parameters), which is the
	// string matching case study's situation.
	Space *param.Space
	// Init is the starting configuration; nil means the space's center.
	Init param.Config
}

func (a Algorithm) space() *param.Space {
	if a.Space == nil {
		return param.NewSpace()
	}
	return a.Space
}

// A Record is one completed tuning iteration.
type Record struct {
	// Iteration is the zero-based global iteration number.
	Iteration int
	// Algo is the index of the selected algorithm.
	Algo int
	// Config is the configuration that was run.
	Config param.Config
	// Value is the measured value (lower is better; time in the paper).
	// For failed iterations it is the substituted penalty.
	Value float64
	// Failed reports that the measurement failed (panic, timeout, or
	// invalid sample) and Value is a penalty, not an observation.
	Failed bool
}

// Measure is the measurement function m: it runs algorithm algo with
// configuration cfg and returns the observed value (for example the
// wall-clock time of the operation, in milliseconds).
type Measure func(algo int, cfg param.Config) float64

// tuner is the decision state of the two-phase tuner: the selector, one
// phase-one strategy per algorithm and the proposer that serves it, the
// counters, the incumbent, and the checkpoint journal. Tuner, the one
// exported tuner type, owns one and drives it under its mutex.
type tuner struct {
	algos       []Algorithm
	selector    nominal.Selector
	inFlightSel nominal.InFlightAware // selector, when it is in-flight aware
	strategies  []search.Strategy
	proposers   []*search.Proposer
	rng         *rand.Rand
	src         *xrand.Source
	seed        int64

	history []Record
	counts  []int
	total   int // sum of counts

	bestAlgo       int
	bestCfg        param.Config
	bestVal        float64
	bestGen        uint64 // bumped whenever the incumbent changes
	keepHistory    bool
	perAlgoHistory [][]float64

	// Fault tolerance (see WithGuard and FailureStats).
	guard       *guard.Guard
	worstVal    float64 // worst valid observation, for the no-guard penalty
	failTotal   int
	failPanics  int
	failTimeout int
	failInvalid int
	failPerAlgo []int
	lastValue   float64 // value recorded by the most recent observation
	lastFailed  bool

	// Failure-rate watchdog ring buffer and degradation state.
	watchWindow int
	degradeAt   float64
	recoverAt   float64
	recent      []bool
	recentIdx   int
	recentFill  int
	recentFails int
	degraded    bool
	pinnedIters int

	// Drift resilience (see WithDriftWatchdog). driftSeq is maintained
	// even without the watchdog so journaled sentinels replay
	// idempotently.
	drift    *driftWatchdog
	driftSeq uint64

	// Crash-safe persistence (see WithCheckpoint).
	ckptDir   string
	ckptEvery int
	ckptSeq   int                 // sequence number of the newest segment
	journal   *checkpoint.Journal // the newest segment; nil until one is rolled
	maxTrial  uint64              // highest trial ID issued, reserved or journaled, carried by snapshots
	ckptErr   error
	replaying bool
	stateBuf  []byte // ExportState's reused payload buffer
	logIter   int    // Iter of the next record in the log (see checkpoint.Record)
	// exported reports that stateBuf holds a context replica's current
	// state, so its global tuner's next snapshot need not encode it
	// again (contextSet.appendState).
	exported bool
	// held marks the algorithms whose strategy the restored snapshot
	// left holding an unreported proposal; only a resume's replay reads
	// it (see replayCompletion). A held proposal whose trial was lost in
	// the crash is not issued again: the strategy proposes afresh on its
	// arm's next lease, and the resume's own snapshot, whose proposers
	// hold nothing, makes a later replay propose afresh too.
	held []bool

	// Contexts (see NewContextualTuner). A contextual engine's global
	// tuner holds its replicas in ctxs; each replica's tuner names its
	// context in ctx and its global tuner in owner, which learns from the
	// replica's successes and keeps its records in its log.
	ctxs  *contextSet
	ctx   string
	owner *tuner
}

// newTuner builds c's decision state and applies the options to both;
// the caller opens the checkpoint directory. It fails when an option
// does not apply (WithShards of more than one shard) and when a strategy
// cannot start on its space.
func newTuner(c *Tuner, algos []Algorithm, selector nominal.Selector, factory search.Factory, seed int64, opts []Option) error {
	if len(algos) == 0 {
		return fmt.Errorf("core: no algorithms to tune")
	}
	if selector == nil {
		return fmt.Errorf("core: nil selector")
	}
	if factory == nil {
		factory = DefaultFactory
	}
	src := xrand.New(seed)
	t := &tuner{
		algos:       algos,
		selector:    selector,
		strategies:  make([]search.Strategy, len(algos)),
		proposers:   make([]*search.Proposer, len(algos)),
		rng:         src.Rand(),
		src:         src,
		seed:        seed,
		counts:      make([]int, len(algos)),
		bestAlgo:    -1,
		bestVal:     math.Inf(1),
		keepHistory: true,
		failPerAlgo: make([]int, len(algos)),
		watchWindow: DefaultWatchWindow,
		degradeAt:   DefaultDegradeThreshold,
		recoverAt:   DefaultDegradeThreshold / 2,
	}
	c.t = t
	for _, o := range opts {
		if err := o(c); err != nil {
			return err
		}
	}
	for i, a := range algos {
		s := factory()
		sp := a.space()
		if !s.Supports(sp) {
			// Fall back to a strategy that can handle the space rather
			// than failing: the pragmatic choice matches the paper's
			// architecture, where phase one is pluggable per algorithm.
			s = DefaultStrategyFor(sp, seed+int64(i))
		}
		if err := s.Start(sp, a.Init); err != nil {
			return fmt.Errorf("core: algorithm %q: %w", a.Name, err)
		}
		t.strategies[i] = s
		// Each proposer gets its own speculation stream, decorrelated
		// from the selector's RNG and from the other proposers'.
		t.proposers[i] = search.NewProposer(s, sp, seed^(0x9e3779b9*int64(i+1)))
	}
	selector.Init(len(algos))
	t.inFlightSel, _ = selector.(nominal.InFlightAware)
	if t.drift != nil {
		t.drift.init(len(algos))
	}
	t.perAlgoHistory = make([][]float64, len(algos))
	return nil
}

// The failure-rate watchdog behind the degradation mode: when the
// failure rate over the last DefaultWatchWindow completed iterations
// reaches DefaultDegradeThreshold, the tuner stops exploring and pins
// the known-good incumbent until the rate falls back below half of it.
const (
	// DefaultWatchWindow is the number of recent iterations over which
	// the failure rate is computed.
	DefaultWatchWindow = 32
	// DefaultDegradeThreshold is the recent failure rate at which the
	// tuner enters degradation mode; it exits at half this rate.
	DefaultDegradeThreshold = 0.5
)

// DefaultFactory builds the paper's phase-one strategy, Nelder-Mead.
func DefaultFactory() search.Strategy { return search.NewNelderMead() }

// DefaultStrategyFor picks a phase-one strategy that can search the given
// space: Fixed for empty spaces, Nelder-Mead for metric spaces, hill
// climbing for discrete ordered spaces, and a genetic algorithm otherwise
// (the one classical method defined on nominal dimensions).
func DefaultStrategyFor(space *param.Space, seed int64) search.Strategy {
	switch {
	case space.Dim() == 0:
		return search.NewFixed()
	case space.MetricOnly():
		return search.NewNelderMead()
	case !space.HasNominal():
		return search.NewHillClimb()
	default:
		return search.NewGenetic(search.DefaultPopulation, seed)
	}
}

// completion describes one finished trial, however it was driven: a
// completion, failure or expiry of a trial the engine handed out, an
// Absorb, or journal replay on resume.
type completion struct {
	algo   int
	cfg    param.Config
	value  float64
	fail   *guard.Failure
	pinned bool
	trial  uint64 // engine trial ID; 0 in journals written before trial IDs
	spec   bool   // speculative proposal: phase one must not learn it
}

// applyCompletion feeds one finished trial into both tuning phases and
// every counter the tuner maintains. reportPhase1 routes the phase-one
// report — live completions through the algorithm's Proposer, replay
// straight to the strategy — and is skipped entirely for pinned
// completions (and nil callbacks), whose configuration was never
// proposed by any strategy.
func (t *tuner) applyCompletion(c completion, reportPhase1 func(param.Config, float64)) {
	failed := c.fail != nil
	iter := t.total // zero-based index of the completing iteration

	if c.pinned {
		t.pinnedIters++
	} else {
		if failed {
			if fa, ok := t.selector.(guard.FailureAware); ok {
				fa.ReportFailure(c.algo, *c.fail)
			}
		}
		if reportPhase1 != nil {
			reportPhase1(c.cfg, c.value)
		}
		t.selector.Report(c.algo, c.value)
	}
	if t.owner != nil && !failed {
		// The global selector learns from every context's traffic.
		t.owner.selector.Report(c.algo, c.value)
	}
	t.counts[c.algo]++
	t.total++
	if t.keepHistory {
		t.history = append(t.history, Record{
			Iteration: iter,
			Algo:      c.algo,
			Config:    c.cfg,
			Value:     c.value,
			Failed:    failed,
		})
	}
	t.appendValue(c.algo, c.value)
	if failed {
		t.failTotal++
		t.failPerAlgo[c.algo]++
		switch c.fail.Kind {
		case guard.Panic:
			t.failPanics++
		case guard.Timeout:
			t.failTimeout++
		default:
			t.failInvalid++
		}
	} else {
		if c.value > t.worstVal {
			t.worstVal = c.value
		}
		if c.value < t.bestVal {
			t.bestVal = c.value
			t.bestAlgo = c.algo
			t.bestCfg = c.cfg.Clone()
			t.bestGen++
		}
	}
	t.lastValue, t.lastFailed = c.value, failed
	t.watch(failed)
	if t.journalOwner().ckptDir != "" && !t.replaying {
		t.checkpointObserve(c)
	}
	if t.drift != nil {
		// After checkpointObserve: a reset's journal sentinel must
		// follow the observation that triggered it.
		t.driftObserve(c)
	}
}

// DefaultValuesTail bounds each per-algorithm value timeline of a tuner
// running WithoutHistory. Timelines are compacted amortizedly: a
// timeline grows to at most 2×DefaultValuesTail values before its oldest
// half is dropped, so memory stays constant over unbounded runs while
// appends remain O(1) amortized.
const DefaultValuesTail = 1024

// appendValue records a value on an algorithm's timeline, bounding the
// timeline when history keeping is off (with history on, the timeline is
// already O(run length) by request).
func (t *tuner) appendValue(algo int, v float64) {
	h := append(t.perAlgoHistory[algo], v)
	if !t.keepHistory && len(h) > 2*DefaultValuesTail {
		copy(h, h[len(h)-DefaultValuesTail:])
		h = h[:DefaultValuesTail]
	}
	t.perAlgoHistory[algo] = h
}

// algoIndex returns the index of the named algorithm, or -1.
func (t *tuner) algoIndex(name string) int {
	for i, a := range t.algos {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// penalty returns the value substituted for a failed observation.
func (t *tuner) penalty() float64 {
	if t.guard != nil {
		return t.guard.Penalty()
	}
	if t.worstVal > 0 {
		return t.worstVal * guard.DefaultPenaltyFactor
	}
	return guard.DefaultFallbackPenalty
}

// watch feeds the failure-rate watchdog and toggles degradation mode.
func (t *tuner) watch(failed bool) {
	if t.watchWindow <= 0 {
		return
	}
	if t.recent == nil {
		t.recent = make([]bool, t.watchWindow)
	}
	if t.recentFill == t.watchWindow {
		if t.recent[t.recentIdx] {
			t.recentFails--
		}
	} else {
		t.recentFill++
	}
	t.recent[t.recentIdx] = failed
	if failed {
		t.recentFails++
	}
	t.recentIdx = (t.recentIdx + 1) % t.watchWindow
	rate := float64(t.recentFails) / float64(t.recentFill)
	if !t.degraded {
		// Enter only with a half-full window (one early failure is not a
		// trend) and a known-good incumbent to pin.
		if t.recentFill >= (t.watchWindow+1)/2 && rate >= t.degradeAt && t.bestAlgo >= 0 {
			t.degraded = true
		}
	} else if rate <= t.recoverAt {
		t.degraded = false
	}
}

// FailureStats summarizes the failures seen by a tuner (see
// Tuner.FailureStats).
type FailureStats struct {
	// Total counts failed iterations; Panics, Timeouts and Invalids break
	// them down by guard.Kind.
	Total, Panics, Timeouts, Invalids int
	// PerAlgo counts failed iterations per algorithm.
	PerAlgo []int
	// RecentRate is the failure fraction over the watchdog window
	// (0 before any iteration).
	RecentRate float64
	// Degraded reports that the tuner is currently pinning the incumbent
	// instead of exploring; PinnedIterations counts iterations spent so.
	Degraded         bool
	PinnedIterations int
}

func (t *tuner) failureStats() FailureStats {
	s := FailureStats{
		Total:            t.failTotal,
		Panics:           t.failPanics,
		Timeouts:         t.failTimeout,
		Invalids:         t.failInvalid,
		PerAlgo:          make([]int, len(t.failPerAlgo)),
		Degraded:         t.degraded,
		PinnedIterations: t.pinnedIters,
	}
	copy(s.PerAlgo, t.failPerAlgo)
	if t.recentFill > 0 {
		s.RecentRate = float64(t.recentFails) / float64(t.recentFill)
	}
	return s
}
