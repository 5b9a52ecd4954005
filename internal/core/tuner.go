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

// Tuner is the two-phase online autotuner. It is driven either through the
// ask/tell pair Next/Observe — which embeds naturally into an existing
// application loop, the paper's online-tuning setting — or through Run,
// which owns the loop. A Tuner is not safe for concurrent use: online
// tuning wraps one repeatedly executed operation of the application.
// Applications measuring from many goroutines wrap it in a
// ConcurrentTuner, whose lease-based trial engine serves multiple trials
// in flight.
type Tuner struct {
	algos      []Algorithm
	selector   nominal.Selector
	strategies []search.Strategy
	rng        *rand.Rand
	src        *xrand.Source
	seed       int64

	history []Record
	counts  []int

	pending        bool
	pendingAlgo    int
	pendingCfg     param.Config
	bestAlgo       int
	bestCfg        param.Config
	bestVal        float64
	keepHistory    bool
	perAlgoHistory [][]float64

	// Fault tolerance (see WithGuard / WithWatchdog and FailureStats).
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
	pinned      bool // the pending observation is a pinned (degraded) run
	pinnedIters int

	// Drift resilience (see WithDriftWatchdog). driftSeq is maintained
	// even without the watchdog so journaled sentinels replay
	// idempotently; engineOwned marks a tuner wrapped by a trial engine,
	// whose strategies must never be restarted beneath the proposers.
	drift       *driftWatchdog
	driftSeq    uint64
	engineOwned bool

	// Crash-safe persistence (see WithCheckpoint).
	ckptDir   string
	ckptEvery int
	ckptSeq   int                 // sequence number of the newest segment
	journal   *checkpoint.Journal // the newest segment; nil until one is rolled
	maxTrial  uint64              // highest trial ID issued or journaled, carried by snapshots
	ckptErr   error
	replaying bool
	stateBuf  []byte // ExportState's reused payload buffer
}

// NewTuner creates a two-phase tuner over the given algorithms.
//
// The selector is the phase-two strategy choosing among algorithms; the
// factory builds one independent phase-one strategy per algorithm.
// NewTuner fails when an algorithm's space is not supported by the
// strategy the factory builds (for example Nelder-Mead on a space with
// ordinal parameters), and when an option outside the sequential tuner's
// scope is passed (ErrOptionScope). The seed determines all stochastic
// choices; runs with equal seeds and deterministic measurement functions
// are identical. With WithCheckpoint on a directory that holds a
// checkpoint, NewTuner resumes from it, replaying the journal through
// Next/Observe and verifying every journaled proposal.
func NewTuner(algos []Algorithm, selector nominal.Selector, factory search.Factory, seed int64, opts ...Option) (*Tuner, error) {
	t, err := newTuner(algos, selector, factory, seed, opts)
	if err != nil {
		return nil, err
	}
	if err := t.openCheckpoint(t.replayVerified); err != nil {
		return nil, err
	}
	return t, nil
}

// newTuner builds a tuner without touching its checkpoint directory; the
// caller opens it with the replay step that fits what it builds.
func newTuner(algos []Algorithm, selector nominal.Selector, factory search.Factory, seed int64, opts []Option) (*Tuner, error) {
	if len(algos) == 0 {
		return nil, fmt.Errorf("core: no algorithms to tune")
	}
	if selector == nil {
		return nil, fmt.Errorf("core: nil selector")
	}
	if factory == nil {
		factory = DefaultFactory
	}
	src := xrand.New(seed)
	t := &Tuner{
		algos:       algos,
		selector:    selector,
		strategies:  make([]search.Strategy, len(algos)),
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
	for _, o := range opts {
		if o.tuner == nil {
			return nil, scopeErr(o)
		}
		o.tuner(t)
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
			return nil, fmt.Errorf("core: algorithm %q: %w", a.Name, err)
		}
		t.strategies[i] = s
	}
	selector.Init(len(algos))
	if t.drift != nil {
		t.drift.init(len(algos))
	}
	t.perAlgoHistory = make([][]float64, len(algos))
	return t, nil
}

// Watchdog defaults (see WithWatchdog).
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

// NumAlgorithms returns the number of algorithm alternatives.
func (t *Tuner) NumAlgorithms() int { return len(t.algos) }

// AlgorithmName returns the name of algorithm i.
func (t *Tuner) AlgorithmName(i int) string { return t.algos[i].Name }

// Next performs phase two (algorithm selection) and phase one
// (configuration proposal) and returns what the application should run
// this iteration. Every Next must be matched by exactly one Observe (or
// ObserveFailure). In degradation mode — the recent failure rate crossed
// the watchdog threshold — Next stops exploring and returns the pinned
// known-good incumbent instead.
func (t *Tuner) Next() (algo int, cfg param.Config) {
	if t.pending {
		panic("core: Next called with an observation pending")
	}
	if t.degraded && t.bestAlgo >= 0 {
		t.pending = true
		t.pinned = true
		t.pendingAlgo = t.bestAlgo
		t.pendingCfg = t.bestCfg.Clone()
		return t.bestAlgo, t.bestCfg.Clone()
	}
	if p, ok := t.takeProbe(); ok {
		// A drift reset scheduled this arm for a forced re-probe: the
		// dethroned regime's evidence is being rebuilt, so the probe
		// overrides phase two (phase one proposes normally).
		algo = p
	} else {
		algo = t.selector.Select(t.rng)
	}
	cfg = t.strategies[algo].Propose()
	t.pending = true
	t.pendingAlgo = algo
	t.pendingCfg = cfg.Clone()
	return algo, cfg
}

// Observe reports the measured value of the configuration returned by the
// preceding Next, feeding both tuning phases.
//
// Non-finite values (NaN, ±Inf) are never accepted as observations, even
// without WithGuard: a NaN sample would silently poison every comparison
// in both phases. The policy is penalty, never incumbent — the iteration
// is recorded as an Invalid failure whose value is the penalty (the worst
// valid observation × guard.DefaultPenaltyFactor, or
// guard.DefaultFallbackPenalty before any), so the strategies steer away,
// and Best() is never contaminated.
func (t *Tuner) Observe(value float64) {
	if !t.pending {
		panic("core: Observe called without a pending Next")
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		t.observe(t.penalty(), &guard.Failure{
			Kind: guard.Invalid,
			Algo: t.pendingAlgo,
			Err:  fmt.Errorf("core: non-finite measurement %v", value),
		})
		return
	}
	t.observe(value, nil)
}

// ObserveFailure reports that the pending measurement failed. Ask/tell
// loops running their measurement through guard.(*Guard).Invoke use this
// to complete the iteration: the failure's penalty (or the tuner's, when
// unset) is fed to both phases, the incumbent is left untouched, and the
// failure is counted in FailureStats.
func (t *Tuner) ObserveFailure(f guard.Failure) {
	if !t.pending {
		panic("core: ObserveFailure called without a pending Next")
	}
	p := f.Penalty
	if p <= 0 || math.IsNaN(p) || math.IsInf(p, 0) {
		p = t.penalty()
		f.Penalty = p
	}
	t.observe(p, &f)
}

// observe completes the pending iteration with the recorded value and an
// optional failure. Pinned (degradation-mode) iterations bypass both
// tuning phases: the incumbent configuration was not proposed by its
// strategy, so reporting it would corrupt the ask/tell state machines.
func (t *Tuner) observe(value float64, fail *guard.Failure) {
	t.pending = false
	pinned := t.pinned
	t.pinned = false
	algo, cfg := t.pendingAlgo, t.pendingCfg
	t.applyCompletion(completion{algo: algo, cfg: cfg, value: value, fail: fail, pinned: pinned},
		func(cf param.Config, v float64) { t.strategies[algo].Report(cf, v) })
	t.journalSync()
}

// completion describes one finished trial, however it was driven:
// sequential Observe, the trial engine's Complete/Fail/expiry, or
// journal replay on resume.
type completion struct {
	algo   int
	cfg    param.Config
	value  float64
	fail   *guard.Failure
	pinned bool
	trial  uint64 // engine trial ID; 0 for sequential completions
	spec   bool   // speculative proposal: phase one must not learn it
}

// applyCompletion feeds one finished trial into both tuning phases and
// every counter the tuner maintains, returning the iteration index it
// completed. reportPhase1 routes the phase-one report — the sequential
// path reports straight to the strategy, the trial engine through the
// algorithm's Proposer — and is skipped entirely for pinned completions
// (and nil callbacks), whose configuration was never proposed by any
// strategy.
func (t *Tuner) applyCompletion(c completion, reportPhase1 func(param.Config, float64)) int {
	failed := c.fail != nil
	iter := t.Iterations() // zero-based index of the completing iteration

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
	t.counts[c.algo]++
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
		}
	}
	t.lastValue, t.lastFailed = c.value, failed
	t.watch(failed)
	if t.ckptDir != "" && !t.replaying {
		t.checkpointObserve(iter, c)
	}
	if t.drift != nil {
		// After checkpointObserve: a reset's journal sentinel must
		// follow the observation that triggered it.
		t.driftObserve(c)
	}
	return iter
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
func (t *Tuner) appendValue(algo int, v float64) {
	h := append(t.perAlgoHistory[algo], v)
	if !t.keepHistory && len(h) > 2*DefaultValuesTail {
		copy(h, h[len(h)-DefaultValuesTail:])
		h = h[:DefaultValuesTail]
	}
	t.perAlgoHistory[algo] = h
}

// algoIndex returns the index of the named algorithm, or -1.
func (t *Tuner) algoIndex(name string) int {
	for i, a := range t.algos {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// penalty returns the value substituted for a failed observation.
func (t *Tuner) penalty() float64 {
	if t.guard != nil {
		return t.guard.Penalty()
	}
	if t.worstVal > 0 {
		return t.worstVal * guard.DefaultPenaltyFactor
	}
	return guard.DefaultFallbackPenalty
}

// watch feeds the failure-rate watchdog and toggles degradation mode.
func (t *Tuner) watch(failed bool) {
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

// Step runs one complete tuning iteration with the given measurement
// function and returns its record. With WithGuard installed the
// measurement runs under the guard: panics, deadline overruns, and
// invalid samples become penalized failures instead of crashes.
func (t *Tuner) Step(m Measure) Record {
	algo, cfg := t.Next()
	if t.guard != nil {
		v, fail := t.guard.Invoke(m, algo, cfg)
		if fail != nil {
			t.ObserveFailure(*fail)
		} else {
			t.Observe(v)
		}
	} else {
		t.Observe(m(algo, cfg))
	}
	return Record{Iteration: t.Iterations() - 1, Algo: algo, Config: cfg.Clone(), Value: t.lastValue, Failed: t.lastFailed}
}

// Run executes iters tuning iterations. This is the whole online tuning
// loop for applications that let the tuner drive.
func (t *Tuner) Run(iters int, m Measure) {
	for i := 0; i < iters; i++ {
		t.Step(m)
	}
}

// RunUntil steps the tuner until stop returns true or maxIters iterations
// have run, returning the number of iterations executed.
func (t *Tuner) RunUntil(m Measure, stop func(*Tuner) bool, maxIters int) int {
	n := 0
	for n < maxIters && !stop(t) {
		t.Step(m)
		n++
	}
	return n
}

// Iterations returns the number of completed tuning iterations.
func (t *Tuner) Iterations() int {
	total := 0
	for _, c := range t.counts {
		total += c
	}
	return total
}

// Best returns the globally best observation so far: the optimal algorithm
// with its configuration and value. Before any iteration it returns
// (-1, nil, +Inf).
func (t *Tuner) Best() (algo int, cfg param.Config, value float64) {
	if t.bestAlgo < 0 {
		return -1, nil, math.Inf(1)
	}
	return t.bestAlgo, t.bestCfg.Clone(), t.bestVal
}

// BestConfigOf returns the best observed configuration and value for one
// specific algorithm (phase one's incumbent).
func (t *Tuner) BestConfigOf(algo int) (param.Config, float64) {
	return t.strategies[algo].Best()
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

// FailureStats returns the failure counters maintained alongside
// Counts(). Failures are counted whether they arrive through a guard
// (Step with WithGuard), through ObserveFailure, or through Observe's
// non-finite-sample sanitizing.
func (t *Tuner) FailureStats() FailureStats {
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

// Guard exposes the guard installed by WithGuard (nil without it), e.g.
// so ask/tell loops can wrap their measurement with SafeMeasure or
// Invoke.
func (t *Tuner) Guard() *guard.Guard { return t.guard }

// Degraded reports whether the tuner is currently in degradation mode,
// pinning the known-good incumbent instead of exploring.
func (t *Tuner) Degraded() bool { return t.degraded }

// Counts returns a copy of the per-algorithm selection counts — the data
// behind the paper's Figures 4 and 8.
func (t *Tuner) Counts() []int {
	c := make([]int, len(t.counts))
	copy(c, t.counts)
	return c
}

// History returns the per-iteration records: every iteration of this
// process plus, after a resume, the snapshot's history tail and the
// replayed journal. It is empty with WithoutHistory, which every
// service-built engine uses. The records are deep copies: mutating a
// returned Record's Config does not touch the tuner's log.
func (t *Tuner) History() []Record {
	h := make([]Record, len(t.history))
	copy(h, t.history)
	for i := range h {
		h[i].Config = h[i].Config.Clone()
	}
	return h
}

// ValuesOf returns the measured values of one algorithm in observation
// order — the per-algorithm timeline behind the paper's Figure 5. With
// WithoutHistory, which every service-built engine uses, the timeline is
// bounded: only the most recent values (between DefaultValuesTail and
// 2×DefaultValuesTail of them) are retained.
func (t *Tuner) ValuesOf(algo int) []float64 {
	v := make([]float64, len(t.perAlgoHistory[algo]))
	copy(v, t.perAlgoHistory[algo])
	return v
}

// Strategy exposes algorithm i's phase-one strategy (for inspection).
func (t *Tuner) Strategy(i int) search.Strategy { return t.strategies[i] }

// Selector exposes the phase-two selector (for inspection).
func (t *Tuner) Selector() nominal.Selector { return t.selector }

// ConvergedAll reports whether every algorithm's phase-one strategy has
// converged. Note that phase two never "converges" in the bandit sense;
// the paper runs a fixed iteration budget chosen to guarantee convergence.
func (t *Tuner) ConvergedAll() bool {
	for _, s := range t.strategies {
		if !s.Converged() {
			return false
		}
	}
	return true
}

// Settled returns a RunUntil predicate that is true once the tuner's best
// value has not improved by more than tol (relative) for window
// consecutive iterations. The paper picks its loop lengths offline "to
// ensure tuning convergence"; Settled lets an application detect that
// point online instead. The returned predicate is stateful: use one per
// tuning run.
func Settled(window int, tol float64) func(*Tuner) bool {
	if window < 1 {
		window = 1
	}
	if tol < 0 {
		tol = 0
	}
	lastImproved := 0
	refBest := math.Inf(1)
	return func(t *Tuner) bool {
		_, _, best := t.Best()
		iter := t.Iterations()
		if math.IsInf(best, 1) {
			// No finite best exists (every iteration failed so far): the
			// tuner cannot have converged on anything, however long the
			// plateau. The window starts counting from the first success.
			lastImproved = iter
			return false
		}
		if math.IsInf(refBest, 1) || best < refBest*(1-tol) {
			refBest = best
			lastImproved = iter
			return false
		}
		return iter-lastImproved >= window
	}
}
