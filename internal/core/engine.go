package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/guard"
	"repro/internal/nominal"
	"repro/internal/param"
	"repro/internal/search"
)

// Trial engine errors.
var (
	// ErrUnknownTrial is returned by Complete/Fail for a trial ID that
	// was never leased, already completed, or reclaimed after its lease
	// expired (a late completion of an expired trial is dropped: the
	// engine already charged the trial as a timeout).
	ErrUnknownTrial = errors.New("core: unknown, completed, or expired trial")
	// ErrTooManyInFlight is returned by Lease when WithMaxInFlight's
	// limit is reached; the caller should complete or wait, not spin.
	ErrTooManyInFlight = errors.New("core: in-flight trial limit reached")
)

// DefaultLeaseTimeout is the lease deadline applied by NewConcurrentTuner
// unless WithLeaseTimeout overrides it.
const DefaultLeaseTimeout = time.Minute

// A Trial is one leased tuning iteration: a ticket the engine hands to a
// worker, to be completed out of order via Complete or Fail.
type Trial struct {
	// ID is the engine-unique ticket; it completes exactly once.
	ID uint64
	// Algo and Config are what the worker should run, as in Tuner.Next.
	Algo   int
	Config param.Config
	// Deadline is when the lease expires and the engine reclaims the
	// trial as a timeout failure (zero with WithLeaseTimeout(0)).
	Deadline time.Time
	// Speculative marks a configuration fabricated by the proposal layer
	// while the strategy's genuine proposal was already leased out; its
	// result feeds the selector and the global best, not phase one.
	Speculative bool
	// Pinned marks a degradation-mode incumbent run that bypasses both
	// tuning phases (see WithWatchdog).
	Pinned bool
}

// TrialResult is one entry of a CompleteN batch: the measured value of a
// leased trial.
type TrialResult struct {
	ID    uint64
	Value float64
}

// TrialFailure is one entry of a FailN batch: a leased trial that failed
// to measure.
type TrialFailure struct {
	ID      uint64
	Failure guard.Failure
}

// lease is the engine's record of an outstanding trial. trial.Config is
// the engine's private copy (the caller got its own clone). epoch is the
// tuner's drift sequence number at lease time: a completion arriving
// after a drift reset is evidence about the regime whose records the
// reset just dropped, and is discarded instead of applied (see
// finishLocked).
type lease struct {
	trial Trial
	prop  search.Proposal
	epoch uint64
}

// bestSnap is the copy-on-write snapshot behind the lock-free Best.
type bestSnap struct {
	algo int
	cfg  param.Config
	val  float64
}

// EngineStats counts trial-engine events since construction.
type EngineStats struct {
	// Leased counts tickets handed out; Completed, Failed and Expired
	// count how they ended (Leased − the others = currently in flight).
	Leased, Completed, Failed, Expired uint64
	// Absorbed counts external observations folded in via Absorb —
	// degraded-mode worker measurements, never leased as trials.
	Absorbed uint64
	// InFlight is the number of currently outstanding leases.
	InFlight int
}

// ConcurrentTuner is the lease-based trial engine over a Tuner: it turns
// the strict Next/Observe alternation into a ticketed, multi-in-flight
// service safe for concurrent use. Workers call Lease to draw a Trial
// and Complete/Fail (in any order, from any goroutine) to report it;
// leases outliving their deadline are reclaimed as timeout failures, so
// a worker that dies never wedges the tuner.
//
// Internally one mutex guards the decision state (selector, strategies,
// counters, checkpoint journal), and it is released only after the
// journal records a call wrote are synced; Best, Counts and Iterations are
// lock-free reads of copy-on-write snapshots refreshed once per
// operation that changed them. Phase one is served through a per-algorithm
// search.Proposer, which hands the strategy's genuine proposal to the
// first taker and incumbent-perturbed speculative configurations to
// every concurrent one; phase two goes through
// nominal.InFlightAware.SelectInFlight when the selector supports it, so
// concurrent leases spread across arms instead of piling onto one.
//
// The engine owns the wrapped Tuner: using the Tuner directly after
// NewConcurrentTuner is a data race. For single-threaded callers the
// engine itself offers the classic Next/Observe/Step/Run surface as a
// thin single-lease adapter.
type ConcurrentTuner struct {
	mu        sync.Mutex
	t         *Tuner
	proposers []*search.Proposer
	leases    map[uint64]*lease
	inFlight  []int // per-algorithm outstanding leases
	nextID    uint64
	adapterID uint64 // outstanding single-lease-adapter trial, 0 = none

	leaseTTL    time.Duration
	maxInFlight int
	sweepAt     time.Time        // earliest outstanding deadline; no sweep can reclaim before it
	now         func() time.Time // injectable clock for expiry tests

	nLeased, nCompleted, nFailed, nExpired, nAbsorbed uint64

	dirty  bool // decision state changed since the last publish
	best   atomic.Pointer[bestSnap]
	counts atomic.Pointer[[]int]
	iters  atomic.Uint64
}

// NewConcurrentTuner builds a two-phase tuner over the given algorithms
// and wraps it in the trial engine, in one step. It accepts both
// tuner-scope options (WithGuard, WithCheckpoint, ...) and engine-scope
// options (WithLeaseTimeout, WithMaxInFlight); sharded-scope options are
// rejected with ErrOptionScope.
//
// With WithCheckpoint on a directory that holds a checkpoint, the engine
// resumes from it: journaled completions are applied directly to the
// decision state (see replayCompletion), which also accepts a sequential
// tuner's journal, and fresh trial IDs are issued above every journaled
// one.
func NewConcurrentTuner(algos []Algorithm, selector nominal.Selector, factory search.Factory, seed int64, opts ...Option) (*ConcurrentTuner, error) {
	tunerOpts, engineOpts, err := splitEngineOptions(opts)
	if err != nil {
		return nil, err
	}
	t, err := newTuner(algos, selector, factory, seed, tunerOpts)
	if err != nil {
		return nil, err
	}
	if err := t.openCheckpoint(t.replayCompletion); err != nil {
		return nil, err
	}
	c, err := wrapEngine(t, engineOpts)
	if err != nil {
		return nil, err
	}
	// Every snapshot carries the highest trial ID issued or journaled
	// before it, so IDs folded into the restored snapshot — a sharded
	// incarnation that snapshotted right before dying may hold the
	// highest — and leases still out at that snapshot stay disjoint
	// from fresh ones too.
	c.nextID = t.maxTrial
	return c, nil
}

// wrapEngine wraps a freshly built (or resumed) Tuner in the trial
// engine. The tuner must be at an iteration boundary — no Next/Observe
// pending — and must not be used directly afterwards. opts must already
// be filtered to engine scope.
func wrapEngine(t *Tuner, opts []Option) (*ConcurrentTuner, error) {
	if t == nil {
		return nil, errors.New("core: NewConcurrentTuner with nil tuner")
	}
	if t.pending {
		return nil, errors.New("core: NewConcurrentTuner with an observation pending")
	}
	// The engine owns the tuner from here: drift resets must not restart
	// the strategies beneath the proposers' outstanding proposals.
	t.engineOwned = true
	c := &ConcurrentTuner{
		t:         t,
		proposers: make([]*search.Proposer, len(t.strategies)),
		leases:    make(map[uint64]*lease),
		inFlight:  make([]int, len(t.algos)),
		leaseTTL:  DefaultLeaseTimeout,
		now:       time.Now,
	}
	for i, s := range t.strategies {
		// Each proposer gets its own speculation stream, decorrelated
		// from the tuner's RNG (which concurrency already makes
		// non-replayable) and from the other proposers'.
		c.proposers[i] = search.NewProposer(s, t.algos[i].space(), t.seed^(0x9e3779b9*int64(i+1)))
	}
	for _, o := range opts {
		o.engine(c)
	}
	c.publishLocked()
	return c, nil
}

// Lease draws the next trial: phase two picks the algorithm (in-flight
// aware when the selector supports it), phase one's proposal layer picks
// the configuration without ever blocking. The returned Trial must be
// finished with Complete or Fail before its Deadline, or the engine
// reclaims it as a timeout.
func (c *ConcurrentTuner) Lease() (Trial, error) {
	c.mu.Lock()
	defer c.unlock()
	return c.leaseLocked()
}

func (c *ConcurrentTuner) leaseLocked() (Trial, error) {
	c.reclaimLocked()
	return c.leaseOneLocked()
}

// leaseOneLocked draws one trial without sweeping expired leases; batch
// callers sweep once and then call this per slot.
func (c *ConcurrentTuner) leaseOneLocked() (Trial, error) {
	if c.maxInFlight > 0 && len(c.leases) >= c.maxInFlight {
		return Trial{}, ErrTooManyInFlight
	}
	t := c.t
	c.nextID++
	t.maxTrial = max(t.maxTrial, c.nextID)
	tr := Trial{ID: c.nextID}
	var prop search.Proposal
	if t.degraded && t.bestAlgo >= 0 {
		tr.Algo = t.bestAlgo
		tr.Config = t.bestCfg.Clone()
		tr.Pinned = true
	} else {
		if p, ok := t.takeProbe(); ok {
			// Drift-reset re-probe: the arm is forced, phase one
			// proposes normally.
			tr.Algo = p
		} else {
			tr.Algo = c.selectLocked()
		}
		prop = c.proposers[tr.Algo].Propose()
		tr.Config = prop.Config.Clone()
		tr.Speculative = !prop.Primary
	}
	if c.leaseTTL > 0 {
		tr.Deadline = c.now().Add(c.leaseTTL)
		if c.sweepAt.IsZero() || tr.Deadline.Before(c.sweepAt) {
			c.sweepAt = tr.Deadline
		}
	}
	stored := tr
	stored.Config = tr.Config.Clone() // callers may mutate their copy
	c.leases[tr.ID] = &lease{trial: stored, prop: prop, epoch: t.driftSeq}
	c.inFlight[tr.Algo]++
	c.nLeased++
	return tr, nil
}

// selectLocked runs phase two under the engine lock.
func (c *ConcurrentTuner) selectLocked() int {
	if ia, ok := c.t.selector.(nominal.InFlightAware); ok {
		return ia.SelectInFlight(c.t.rng, c.inFlight)
	}
	return c.t.selector.Select(c.t.rng)
}

// Complete finishes a leased trial with its measured value, feeding both
// tuning phases exactly as Tuner.Observe would. Non-finite values are
// converted to Invalid failures with the tuner's penalty. Completions
// arrive in any order; a trial already completed, failed, or reclaimed
// returns ErrUnknownTrial.
func (c *ConcurrentTuner) Complete(id uint64, value float64) error {
	c.mu.Lock()
	defer c.unlock()
	c.reclaimLocked()
	return c.completeLocked(id, value)
}

func (c *ConcurrentTuner) completeLocked(id uint64, value float64) error {
	l, ok := c.takeLocked(id)
	if !ok {
		return ErrUnknownTrial
	}
	c.nCompleted++
	if math.IsNaN(value) || math.IsInf(value, 0) {
		f := &guard.Failure{
			Kind:    guard.Invalid,
			Algo:    l.trial.Algo,
			Err:     fmt.Errorf("core: non-finite measurement %v", value),
			Penalty: c.t.penalty(),
		}
		c.finishLocked(l, f.Penalty, f)
		return nil
	}
	c.finishLocked(l, value, nil)
	return nil
}

// Fail finishes a leased trial as a measurement failure (panic, timeout,
// invalid sample), feeding the failure's penalty — or the tuner's, when
// unset — to both phases, as Tuner.ObserveFailure would.
func (c *ConcurrentTuner) Fail(id uint64, f guard.Failure) error {
	c.mu.Lock()
	defer c.unlock()
	c.reclaimLocked()
	return c.failLocked(id, f)
}

func (c *ConcurrentTuner) failLocked(id uint64, f guard.Failure) error {
	l, ok := c.takeLocked(id)
	if !ok {
		return ErrUnknownTrial
	}
	c.nFailed++
	f.Algo = l.trial.Algo
	if f.Penalty <= 0 || math.IsNaN(f.Penalty) || math.IsInf(f.Penalty, 0) {
		f.Penalty = c.t.penalty()
	}
	c.finishLocked(l, f.Penalty, &f)
	return nil
}

// LeaseN draws up to n trials under a single acquisition of the decision
// mutex — the batch amortization of Lease's per-trial lock round-trip
// (and, through the wire layer, of a remote worker's network round-trip).
// It returns fewer than n trials when WithMaxInFlight caps the batch; it
// returns ErrTooManyInFlight only when not even one trial could be
// leased. Batch contents are exactly what n repeated Lease calls would
// have drawn.
func (c *ConcurrentTuner) LeaseN(n int) ([]Trial, error) {
	if n <= 0 {
		return nil, nil
	}
	c.mu.Lock()
	defer c.unlock()
	c.reclaimLocked()
	out := make([]Trial, 0, n)
	for i := 0; i < n; i++ {
		tr, err := c.leaseOneLocked()
		if err != nil {
			if len(out) > 0 && errors.Is(err, ErrTooManyInFlight) {
				return out, nil
			}
			return nil, err
		}
		out = append(out, tr)
	}
	return out, nil
}

// CompleteN finishes a batch of leased trials under a single acquisition
// of the decision mutex, in slice order. The returned slice is aligned
// with results: a nil entry means the completion was applied, and
// ErrUnknownTrial means it was acknowledged but dropped — the trial was
// already completed, failed, or reclaimed after its lease expired. A
// dropped late completion is not an error condition for distributed
// callers: retrying a batch whose first attempt was applied is safe,
// which is what makes Complete idempotent per trial ID.
func (c *ConcurrentTuner) CompleteN(results []TrialResult) []error {
	c.mu.Lock()
	defer c.unlock()
	c.reclaimLocked()
	errs := make([]error, len(results))
	for i, r := range results {
		errs[i] = c.completeLocked(r.ID, r.Value)
	}
	return errs
}

// FailN fails a batch of leased trials under a single acquisition of the
// decision mutex, with the same alignment and idempotency semantics as
// CompleteN.
func (c *ConcurrentTuner) FailN(fails []TrialFailure) []error {
	c.mu.Lock()
	defer c.unlock()
	c.reclaimLocked()
	errs := make([]error, len(fails))
	for i, f := range fails {
		errs[i] = c.failLocked(f.ID, f.Failure)
	}
	return errs
}

// Heartbeat extends the lease deadline of each still-outstanding trial
// to now + the lease timeout and reports, aligned with ids, which ones
// are still alive. A false entry means the trial is no longer leased —
// completed, failed, or already reclaimed — and the worker holding it
// should abandon the measurement rather than complete it. With
// WithLeaseTimeout(0) heartbeats only report liveness; there is no
// deadline to extend.
func (c *ConcurrentTuner) Heartbeat(ids []uint64) []bool {
	c.mu.Lock()
	defer c.unlock()
	c.reclaimLocked()
	alive := make([]bool, len(ids))
	var deadline time.Time
	if c.leaseTTL > 0 {
		deadline = c.now().Add(c.leaseTTL)
	}
	for i, id := range ids {
		l, ok := c.leases[id]
		if !ok {
			continue
		}
		alive[i] = true
		if c.leaseTTL > 0 {
			l.trial.Deadline = deadline
		}
	}
	return alive
}

// Alive reports, aligned with ids, which trials are still leased —
// like Heartbeat, but without extending any deadline. Overload control
// uses it to prune a session's lease ledger without keeping abandoned
// leases alive.
func (c *ConcurrentTuner) Alive(ids []uint64) []bool {
	c.mu.Lock()
	defer c.unlock()
	c.reclaimLocked()
	alive := make([]bool, len(ids))
	for i, id := range ids {
		_, alive[i] = c.leases[id]
	}
	return alive
}

// Absorb folds externally-measured observations into phase two and the
// global best, journaling each under a fresh trial ID. This is the
// merge half of the nominal.Mergeable algebra applied across a process
// boundary: a partitioned worker keeps measuring against a local
// selector and, on reconnect, ships its (arm, value) stream here, where
// replaying it through Report is indistinguishable from having observed
// it live (see nominal.Mergeable). Phase one is deliberately untouched
// — the configurations were proposed by the worker's local tuner, not
// by this engine's strategies, exactly like speculative completions.
//
// Observations with an out-of-range arm or a non-finite value are
// skipped; failed observations carry the worker's penalty as Value and
// are charged to the failure counters. Returns the number applied.
func (c *ConcurrentTuner) Absorb(obs []nominal.Observation) int {
	if len(obs) == 0 {
		return 0
	}
	c.mu.Lock()
	defer c.unlock()
	return c.absorbLocked(obs)
}

// absorbLocked applies Absorb under the decision mutex (shared with the
// sharded engine, which adds replica propagation around it).
func (c *ConcurrentTuner) absorbLocked(obs []nominal.Observation) int {
	t := c.t
	applied := 0
	for _, o := range obs {
		if o.Arm < 0 || o.Arm >= len(t.algos) || math.IsNaN(o.Value) || math.IsInf(o.Value, 0) {
			continue
		}
		c.nextID++
		var fail *guard.Failure
		if o.Failed {
			fail = &guard.Failure{
				Kind:    guard.Invalid,
				Algo:    o.Arm,
				Err:     errors.New("core: absorbed degraded-mode failure"),
				Penalty: o.Value,
			}
		}
		t.applyCompletion(completion{
			algo: o.Arm, value: o.Value, fail: fail, trial: c.nextID, spec: true,
		}, nil)
		applied++
	}
	c.nAbsorbed += uint64(applied)
	c.dirty = true
	return applied
}

// ExportSelectorState serializes the phase-two selector's state under
// the engine mutex — the fold contextual replicas warm-start from. It
// fails when the selector does not implement nominal.Stateful (all
// built-in selectors do).
func (c *ConcurrentTuner) ExportSelectorState() ([]byte, error) {
	c.mu.Lock()
	defer c.unlock()
	sel, ok := c.t.selector.(nominal.Stateful)
	if !ok {
		return nil, fmt.Errorf("core: selector %T does not export state", c.t.selector)
	}
	return sel.Export()
}

// RestoreSelectorState replaces the phase-two selector's state with a
// previously exported one, under the engine mutex. The selector must be
// the same type the state was exported from (the caller pairs factories,
// as contextual replicas do with the global engine's selector).
func (c *ConcurrentTuner) RestoreSelectorState(data []byte) error {
	c.mu.Lock()
	defer c.unlock()
	sel, ok := c.t.selector.(nominal.Stateful)
	if !ok {
		return fmt.Errorf("core: selector %T does not restore state", c.t.selector)
	}
	if err := sel.Restore(data); err != nil {
		return err
	}
	c.dirty = true
	return nil
}

// DecaySelector discounts the phase-two selector's accumulated history
// (see nominal.Decayable), keeping roughly a keep-fraction of each arm's
// evidence. Contextual replicas use it to soften a warm start imported
// from another engine's fold: the imported record biases early choices
// but weakly-evidenced arms return to the unvisited state and are
// re-probed against local, honestly-scaled measurements. No-op for
// selectors that do not implement Decayable.
func (c *ConcurrentTuner) DecaySelector(keep float64) {
	c.mu.Lock()
	defer c.unlock()
	if d, ok := c.t.selector.(nominal.Decayable); ok {
		d.Decay(keep)
	}
	c.dirty = true
}

// Checkpoint journals a snapshot of the current state, syncs it and
// closes the segment file — the final durability step of a graceful
// drain or of a tenant's spill, which therefore leaves no file open. A
// later operation reopens the segment. No-op without WithCheckpoint.
func (c *ConcurrentTuner) Checkpoint() error {
	c.mu.Lock()
	defer c.unlock()
	if c.t.ckptDir == "" {
		return nil
	}
	err := c.t.snapshotNow()
	if err == nil {
		err = c.t.journal.Close()
	}
	c.t.ckptErr = err
	return err
}

// LeaseTimeout returns the engine's lease deadline duration (zero when
// expiry is disabled).
func (c *ConcurrentTuner) LeaseTimeout() time.Duration {
	return c.leaseTTL
}

// takeLocked removes an outstanding lease, maintaining in-flight counts.
func (c *ConcurrentTuner) takeLocked(id uint64) (*lease, bool) {
	l, ok := c.leases[id]
	if !ok {
		return nil, false
	}
	delete(c.leases, id)
	c.inFlight[l.trial.Algo]--
	return l, true
}

// reclaimLocked sweeps expired leases, completing each as a timeout
// failure: the penalty reaches the selector, the proposer (releasing a
// wedged primary proposal back to its strategy), and the failure
// counters, so a crashed worker costs one penalized iteration instead of
// a stuck engine. Called at the top of every engine entry point.
func (c *ConcurrentTuner) reclaimLocked() {
	if c.leaseTTL <= 0 || len(c.leases) == 0 {
		return
	}
	now := c.now()
	if !c.sweepAt.IsZero() && now.Before(c.sweepAt) {
		return // nothing can have expired yet; skip the map scan
	}
	for id, l := range c.leases {
		if !l.trial.Deadline.IsZero() && now.After(l.trial.Deadline) {
			delete(c.leases, id)
			c.inFlight[l.trial.Algo]--
			c.nExpired++
			f := &guard.Failure{
				Kind:    guard.Timeout,
				Algo:    l.trial.Algo,
				Err:     fmt.Errorf("core: trial %d lease expired", id),
				Penalty: c.t.penalty(),
			}
			c.finishLocked(l, f.Penalty, f)
		}
	}
	// Recompute the watermark from the survivors so the next scan waits
	// for the new earliest deadline. Completions may leave it stale
	// (pointing at a reported lease), which costs at most one extra
	// scan per TTL window, never a missed expiry.
	c.sweepAt = time.Time{}
	for _, l := range c.leases {
		d := l.trial.Deadline
		if !d.IsZero() && (c.sweepAt.IsZero() || d.Before(c.sweepAt)) {
			c.sweepAt = d
		}
	}
}

// ReclaimExpired sweeps expired leases immediately (the sweep otherwise
// piggybacks on Lease/Complete/Fail calls) and returns how many trials
// it reclaimed as timeouts.
func (c *ConcurrentTuner) ReclaimExpired() int {
	c.mu.Lock()
	defer c.unlock()
	before := c.nExpired
	c.sweepAt = time.Time{} // explicit call: force the scan past the watermark
	c.reclaimLocked()
	return int(c.nExpired - before)
}

// finishLocked routes one taken lease through the shared completion
// path and marks the lock-free snapshots for refresh. A lease older than
// the current drift epoch is discarded instead: its measurement belongs to
// the regime whose evidence the reset dropped, and folding it in would
// re-poison the decayed selector (a single stale best-value record
// re-enthrones the dethroned incumbent). Phase one is still unblocked —
// the proposer's ask/tell alternation must not wedge on a dropped
// result.
func (c *ConcurrentTuner) finishLocked(l *lease, value float64, fail *guard.Failure) {
	if l.epoch != c.t.driftSeq {
		if !l.trial.Pinned {
			c.proposers[l.trial.Algo].Report(l.prop, value)
		}
		if d := c.t.drift; d != nil {
			d.staleDrops++
		}
		return
	}
	var report func(param.Config, float64)
	if !l.trial.Pinned {
		algo, prop := l.trial.Algo, l.prop
		// The proposer routes: primary reports reach the strategy,
		// speculative ones only the proposer-local incumbent.
		report = func(param.Config, float64) { c.proposers[algo].Report(prop, value) }
	}
	c.t.applyCompletion(completion{
		algo:   l.trial.Algo,
		cfg:    l.trial.Config,
		value:  value,
		fail:   fail,
		pinned: l.trial.Pinned,
		trial:  l.trial.ID,
		spec:   l.trial.Speculative,
	}, report)
	c.dirty = true
}

// unlock releases the decision mutex after making durable every journal
// record the operation wrote and publishing the snapshots it changed:
// one fsync and one publish per engine operation, both before anything
// the operation acknowledges can reach its caller. Every path that
// journals or marks the snapshots dirty — completions, failures, Absorb,
// sharded folds, and the expiry sweeps Lease, Heartbeat and Alive run —
// releases the mutex here.
func (c *ConcurrentTuner) unlock() {
	c.t.journalSync()
	if c.dirty {
		c.publishLocked()
		c.dirty = false
	}
	c.mu.Unlock()
}

// publishLocked refreshes the copy-on-write snapshots read lock-free by
// Best, Counts and Iterations. Engine operations do not call it
// directly: they set dirty, and unlock publishes once per operation.
func (c *ConcurrentTuner) publishLocked() {
	t := c.t
	// Most operations leave the best where it was; keep its snapshot.
	if b := c.best.Load(); t.bestAlgo >= 0 && (b == nil || b.algo != t.bestAlgo || b.val != t.bestVal || !b.cfg.Equal(t.bestCfg)) {
		c.best.Store(&bestSnap{algo: t.bestAlgo, cfg: t.bestCfg.Clone(), val: t.bestVal})
	}
	counts := make([]int, len(t.counts))
	copy(counts, t.counts)
	c.counts.Store(&counts)
	c.iters.Store(uint64(t.Iterations()))
}

// Best returns the globally best observation so far — (-1, nil, +Inf)
// before any — without taking the engine lock.
func (c *ConcurrentTuner) Best() (algo int, cfg param.Config, value float64) {
	b := c.best.Load()
	if b == nil {
		return -1, nil, math.Inf(1)
	}
	return b.algo, b.cfg.Clone(), b.val
}

// Counts returns a copy of the per-algorithm completion counts without
// taking the engine lock.
func (c *ConcurrentTuner) Counts() []int {
	p := c.counts.Load()
	if p == nil {
		return nil
	}
	out := make([]int, len(*p))
	copy(out, *p)
	return out
}

// Iterations returns the number of completed trials without taking the
// engine lock.
func (c *ConcurrentTuner) Iterations() int { return int(c.iters.Load()) }

// Stats returns the trial-engine event counters.
func (c *ConcurrentTuner) Stats() EngineStats {
	c.mu.Lock()
	defer c.unlock()
	return EngineStats{
		Leased:    c.nLeased,
		Completed: c.nCompleted,
		Failed:    c.nFailed,
		Expired:   c.nExpired,
		Absorbed:  c.nAbsorbed,
		InFlight:  len(c.leases),
	}
}

// InFlight returns the number of currently outstanding leases.
func (c *ConcurrentTuner) InFlight() int {
	c.mu.Lock()
	defer c.unlock()
	return len(c.leases)
}

// NumAlgorithms returns the number of algorithm alternatives.
func (c *ConcurrentTuner) NumAlgorithms() int { return len(c.t.algos) }

// AlgorithmName returns the name of algorithm i.
func (c *ConcurrentTuner) AlgorithmName(i int) string { return c.t.algos[i].Name }

// Guard exposes the guard installed by WithGuard (nil without it); the
// guard is internally synchronized, so workers may Invoke it directly.
func (c *ConcurrentTuner) Guard() *guard.Guard { return c.t.guard }

// FailureStats returns the failure counters (see Tuner.FailureStats).
func (c *ConcurrentTuner) FailureStats() FailureStats {
	c.mu.Lock()
	defer c.unlock()
	return c.t.FailureStats()
}

// Degraded reports whether the watchdog currently pins the incumbent.
func (c *ConcurrentTuner) Degraded() bool {
	c.mu.Lock()
	defer c.unlock()
	return c.t.degraded
}

// History returns the per-iteration records, in completion order. It is
// empty for an engine built WithoutHistory, as EngineSpec.Build and
// ctxtune build theirs (see Tuner.History).
func (c *ConcurrentTuner) History() []Record {
	c.mu.Lock()
	defer c.unlock()
	return c.t.History()
}

// ValuesOf returns the completed values of one algorithm in completion
// order. For an engine built WithoutHistory, as EngineSpec.Build and
// ctxtune build theirs, only the most recent values are kept (see
// Tuner.ValuesOf).
func (c *ConcurrentTuner) ValuesOf(algo int) []float64 {
	c.mu.Lock()
	defer c.unlock()
	return c.t.ValuesOf(algo)
}

// BestConfigOf returns phase one's incumbent for one algorithm.
func (c *ConcurrentTuner) BestConfigOf(algo int) (param.Config, float64) {
	c.mu.Lock()
	defer c.unlock()
	return c.proposers[algo].Best()
}

// CheckpointErr returns the most recent checkpoint I/O error, or nil.
func (c *ConcurrentTuner) CheckpointErr() error {
	c.mu.Lock()
	defer c.unlock()
	return c.t.ckptErr
}

// Next is the single-lease adapter for Tuner.Next: it leases one trial
// and remembers it for the following Observe/ObserveFailure. Like
// Tuner.Next it panics on a pending observation; unlike raw leases the
// adapter's trial is what Observe completes, so sequential callers can
// switch a *Tuner for a *ConcurrentTuner without other changes.
func (c *ConcurrentTuner) Next() (algo int, cfg param.Config) {
	c.mu.Lock()
	defer c.unlock()
	if c.adapterID != 0 {
		panic("core: Next called with an observation pending")
	}
	tr, err := c.leaseLocked()
	if err != nil {
		panic(err)
	}
	c.adapterID = tr.ID
	return tr.Algo, tr.Config
}

// Observe completes the adapter trial leased by the preceding Next.
func (c *ConcurrentTuner) Observe(value float64) {
	c.mu.Lock()
	defer c.unlock()
	id := c.adapterID
	if id == 0 {
		panic("core: Observe called without a pending Next")
	}
	c.adapterID = 0
	if err := c.completeLocked(id, value); err != nil {
		panic(err)
	}
}

// ObserveFailure fails the adapter trial leased by the preceding Next.
func (c *ConcurrentTuner) ObserveFailure(f guard.Failure) {
	c.mu.Lock()
	defer c.unlock()
	id := c.adapterID
	if id == 0 {
		panic("core: ObserveFailure called without a pending Next")
	}
	c.adapterID = 0
	if err := c.failLocked(id, f); err != nil {
		panic(err)
	}
}

// Step runs one complete trial with the given measurement function,
// releasing the engine lock while m runs so concurrent workers proceed.
// With WithGuard installed the measurement runs under the guard.
func (c *ConcurrentTuner) Step(m Measure) Record {
	tr, err := c.Lease()
	if err != nil {
		panic(err)
	}
	if g := c.t.guard; g != nil {
		v, fail := g.Invoke(m, tr.Algo, tr.Config)
		if fail != nil {
			c.Fail(tr.ID, *fail)
		} else {
			c.Complete(tr.ID, v)
		}
	} else {
		c.Complete(tr.ID, m(tr.Algo, tr.Config))
	}
	c.mu.Lock()
	defer c.unlock()
	return Record{
		Iteration: c.t.Iterations() - 1,
		Algo:      tr.Algo,
		Config:    tr.Config.Clone(),
		Value:     c.t.lastValue,
		Failed:    c.t.lastFailed,
	}
}

// Run executes iters trials sequentially (see RunPool for the
// multi-worker driver).
func (c *ConcurrentTuner) Run(iters int, m Measure) {
	for i := 0; i < iters; i++ {
		c.Step(m)
	}
}

// RunPool drives the engine with a pool of worker goroutines until total
// trials have been leased, blocking until all complete. Each worker
// loops lease → measure → complete; with WithGuard installed every
// measurement runs under the guard. When WithMaxInFlight is below the
// worker count, workers briefly back off on ErrTooManyInFlight.
func (c *ConcurrentTuner) RunPool(workers, total int, m Measure) {
	if workers < 1 {
		workers = 1
	}
	g := c.t.guard
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(total) {
				var tr Trial
				for {
					var err error
					tr, err = c.Lease()
					if err == nil {
						break
					}
					if !errors.Is(err, ErrTooManyInFlight) {
						panic(err)
					}
					time.Sleep(200 * time.Microsecond)
				}
				if g != nil {
					v, fail := g.Invoke(m, tr.Algo, tr.Config)
					if fail != nil {
						c.Fail(tr.ID, *fail)
					} else {
						c.Complete(tr.ID, v)
					}
				} else {
					c.Complete(tr.ID, m(tr.Algo, tr.Config))
				}
			}
		}()
	}
	wg.Wait()
}
