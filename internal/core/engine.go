package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
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

// DefaultLeaseTimeout is the deadline of the trials Lease and LeaseN hand
// out, unless WithLeaseTimeout overrides it.
const DefaultLeaseTimeout = time.Minute

// A Trial is one leased tuning iteration: a ticket the engine hands to a
// worker, to be completed out of order via Complete or Fail.
type Trial struct {
	// ID is the engine-unique ticket; it completes exactly once.
	ID uint64
	// Algo and Config are what the worker should run, as from Next.
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
	// tuning phases (see DefaultWatchWindow).
	Pinned bool
}

// TrialResult is one entry of a CompleteN batch: the measured value of a
// leased trial.
type TrialResult struct {
	ID    uint64
	Value float64
}

// TrialFailure is one entry of a FailN batch: a leased trial that failed
// to measure. Released marks instead a lease handed back unmeasured (a
// client stopping with trials it leased ahead): the engine takes it back
// without a penalty or a failure count, reports nothing to the selector,
// the guard or the drift watchdog, journals nothing, and re-issues a
// primary proposal as its arm's next primary. Failure is ignored.
type TrialFailure struct {
	ID       uint64
	Failure  guard.Failure
	Released bool
}

// lease is the engine's record of an outstanding trial. The leases
// Lease and LeaseN hand out are stored by value in Tuner.leases, so
// issuing one costs no allocation of its own; the trials Step and Next
// hand out are kept by Step and in Tuner.pending instead. trial.Config is
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
	// Leased counts trials handed out, by Lease, LeaseN, Step and Next;
	// Completed, Failed, Expired and Released count how they ended
	// (Leased − the others = currently in flight).
	Leased, Completed, Failed, Expired, Released uint64
	// Absorbed counts external observations folded in via Absorb —
	// degraded-mode worker measurements, never leased as trials.
	Absorbed uint64
	// InFlight is the number of currently outstanding trials.
	InFlight int
}

// Tuner is the two-phase online autotuner. A caller drives it in one of
// two ways, or both at once:
//
//   - as a single caller, through Step and Run, which own the loop, or
//     through the ask/tell pair Next/Observe, which embeds naturally into
//     an existing application loop — the paper's online-tuning setting;
//   - as a lease-based trial engine serving many trials in flight:
//     workers call Lease (or LeaseN) to draw a Trial and Complete/Fail
//     (in any order, from any goroutine) to report it. Leases outliving
//     their deadline are reclaimed as timeout failures, so a worker that
//     dies never wedges the tuner.
//
// A Tuner is safe for concurrent use. One mutex guards the decision state
// (selector, strategies, counters, checkpoint journal) — the replicas of
// a contextual engine share their global engine's (see
// NewContextualTuner) — and it is released only after the journal
// records a call wrote are synced. Best, Counts and Iterations are
// lock-free reads of snapshots refreshed once per operation that changed
// them: the best is copy-on-write, the counts are per-arm atomics. Phase
// one is served through a per-algorithm search.Proposer, which hands the
// strategy's genuine proposal to the first taker and incumbent-perturbed
// speculative configurations to every concurrent one; phase two goes
// through nominal.InFlightAware.SelectInFlight when the selector supports
// it, so concurrent leases spread across arms instead of piling onto one.
//
// A single caller pays for none of the engine's machinery: a Step takes
// the mutex twice, reads no clock and keeps its trial out of the lease
// map, and its trial never expires. With one trial in flight at a time
// the proposers never speculate, so a single caller's decisions are the
// sequential two-phase loop's, and a resumed run makes the decisions of
// an uninterrupted one (see WithCheckpoint).
type Tuner struct {
	mu       *engineMu
	t        *tuner
	leases   map[uint64]lease
	inFlight []int // per-algorithm outstanding trials
	out      int   // outstanding trials: the leases, and those Step and Next hold
	pending  lease // the trial Next handed out and Observe completes; ID 0 when none

	leaseTTL    time.Duration
	maxInFlight int
	sweepAt     time.Time        // earliest outstanding deadline; no sweep can reclaim before it
	now         func() time.Time // injectable clock for expiry tests

	nLeased, nCompleted, nFailed, nExpired, nReleased, nAbsorbed uint64

	dirty   bool   // decision state changed since the last publish
	bestGen uint64 // the decision state's bestGen at the last publish
	best    atomic.Pointer[bestSnap]
	counts  []atomic.Int64 // per-algorithm completion counts
}

// engineMu is a tuner's mutex and the trial-ID counter it guards. The
// replicas of a contextual engine share their global engine's (see
// NewContextualTuner), so trial IDs are unique across the whole engine.
type engineMu struct {
	sync.Mutex
	lastID uint64 // highest trial ID issued
	markID uint64 // highest trial ID reserved (see idBlock)
}

// idBlock is how many trial IDs a durable engine reserves at a time. The
// trial that crosses the reserved range journals the next high-water
// mark, idBlock IDs ahead, and its operation waits on that sync; every
// other trial issues its ID from memory. An engine rebuilt over the
// directory starts above the last mark, so no ID issued before a crash —
// not even that of a lease still out and never journaled — is issued
// again.
const idBlock = 1024

// NewTuner creates a two-phase tuner over the given algorithms.
//
// The selector is the phase-two strategy choosing among algorithms; the
// factory builds one independent phase-one strategy per algorithm (nil
// is DefaultFactory). NewTuner fails when an algorithm's space is not
// supported by the strategy the factory builds (for example Nelder-Mead
// on a space with ordinal parameters). The seed determines all
// stochastic choices; single-caller runs with equal seeds and
// deterministic measurement functions are identical.
//
// With WithCheckpoint on a directory that holds a checkpoint, NewTuner
// resumes from it: the newest snapshot is restored and the journaled
// completions after it are replayed (see replayCompletion), and fresh
// trial IDs are issued above every one issued before.
func NewTuner(algos []Algorithm, selector nominal.Selector, factory search.Factory, seed int64, opts ...Option) (*Tuner, error) {
	return buildEngine(algos, selector, factory, seed, nil, opts)
}

// buildEngine builds a tuner, the global engine of a contextual one when
// hook is non-nil (see NewContextualTuner), and resumes its checkpoint
// directory.
func buildEngine(algos []Algorithm, selector nominal.Selector, factory search.Factory, seed int64, hook ContextHook, opts []Option) (*Tuner, error) {
	mu := new(engineMu)
	c, err := build(algos, selector, factory, seed, opts, mu)
	if err != nil {
		return nil, err
	}
	if hook != nil {
		c.t.ctxs = newContextSet(hook, mu, factory, opts)
	}
	if err := c.t.openCheckpoint(); err != nil {
		return nil, err
	}
	// Every snapshot carries the highest trial ID issued or reserved
	// before it, so IDs folded into the restored snapshot and leases
	// still out at that snapshot stay disjoint from fresh ones too.
	mu.lastID = c.t.maxTrial
	c.publishLocked()
	return c, nil
}

// build makes a tuner that locks mu and draws its trial IDs from it,
// without touching its checkpoint directory.
func build(algos []Algorithm, selector nominal.Selector, factory search.Factory, seed int64, opts []Option, mu *engineMu) (*Tuner, error) {
	c := &Tuner{
		mu:       mu,
		leases:   make(map[uint64]lease),
		inFlight: make([]int, len(algos)),
		counts:   make([]atomic.Int64, len(algos)),
		leaseTTL: DefaultLeaseTimeout,
		now:      time.Now,
	}
	if err := newTuner(c, algos, selector, factory, seed, opts); err != nil {
		return nil, err
	}
	return c, nil
}

// nextIDLocked issues the next trial ID, journaling the next high-water
// mark when the ID crosses the reserved range (see idBlock).
func (c *Tuner) nextIDLocked() uint64 {
	mu := c.mu
	mu.lastID++
	if mu.lastID > mu.markID {
		mu.markID = mu.lastID + idBlock - 1
		c.t.journalMark(mu.markID)
	}
	return mu.lastID
}

// drawLocked draws the next trial: phase two picks the algorithm (in-flight
// aware when the selector supports it), phase one's proposal layer picks
// the configuration without ever blocking. The trial counts as
// outstanding; the caller keeps it — in the lease map, in Step, or in
// the pending slot — and finishes it through finishLocked.
func (c *Tuner) drawLocked(l *lease) error {
	if c.maxInFlight > 0 && c.out >= c.maxInFlight {
		return ErrTooManyInFlight
	}
	t := c.t
	l.trial.ID, l.epoch = c.nextIDLocked(), t.driftSeq
	if t.degraded && t.bestAlgo >= 0 {
		l.trial.Algo = t.bestAlgo
		l.trial.Config = t.bestCfg.Clone()
		l.trial.Pinned = true
	} else {
		if p, ok := t.takeProbe(); ok {
			// Drift-reset re-probe: the arm is forced, phase one
			// proposes normally.
			l.trial.Algo = p
		} else {
			l.trial.Algo = c.selectLocked()
		}
		l.prop = t.proposers[l.trial.Algo].Propose()
		l.trial.Config = l.prop.Config
		l.trial.Speculative = !l.prop.Primary
	}
	c.inFlight[l.trial.Algo]++
	c.out++
	c.nLeased++
	return nil
}

// selectLocked runs phase two under the engine lock.
func (c *Tuner) selectLocked() int {
	if ia := c.t.inFlightSel; ia != nil {
		return ia.SelectInFlight(c.t.rng, c.inFlight)
	}
	return c.t.selector.Select(c.t.rng)
}

// settleLocked stops counting a trial taken back from its holder as
// outstanding.
func (c *Tuner) settleLocked(l *lease) {
	c.inFlight[l.trial.Algo]--
	c.out--
}

// Lease draws the next trial. The returned Trial must be finished with
// Complete or Fail before its Deadline, or the engine reclaims it as a
// timeout.
func (c *Tuner) Lease() (Trial, error) {
	c.mu.Lock()
	defer c.unlock()
	now := c.leaseClock()
	c.sweepLocked(now)
	return c.leaseOneLocked(now)
}

// leaseClock reads the clock once for a lease operation: its deadlines
// and its expiry sweep share the reading. Zero when leases never expire.
func (c *Tuner) leaseClock() time.Time {
	if c.leaseTTL <= 0 {
		return time.Time{}
	}
	return c.now()
}

// leaseOneLocked draws one trial into the lease map without sweeping
// expired leases; batch callers sweep once and then call this per slot
// with the batch's one clock reading.
func (c *Tuner) leaseOneLocked(now time.Time) (Trial, error) {
	var l lease
	if err := c.drawLocked(&l); err != nil {
		return Trial{}, err
	}
	if c.leaseTTL > 0 {
		l.trial.Deadline = now.Add(c.leaseTTL)
		if c.sweepAt.IsZero() || l.trial.Deadline.Before(c.sweepAt) {
			c.sweepAt = l.trial.Deadline
		}
	}
	tr := l.trial
	tr.Config = l.trial.Config.Clone()
	l.trial.Config = tr.Config.Clone() // callers may mutate their copy
	c.leases[tr.ID] = l
	return tr, nil
}

// Complete finishes a leased trial with its measured value, feeding both
// tuning phases. Non-finite values are converted to Invalid failures
// with the tuner's penalty. Completions arrive in any order; a trial
// already completed, failed, or reclaimed returns ErrUnknownTrial.
func (c *Tuner) Complete(id uint64, value float64) error {
	c.mu.Lock()
	defer c.unlock()
	c.reclaimLocked()
	return c.completeLocked(id, value)
}

func (c *Tuner) completeLocked(id uint64, value float64) error {
	l, ok := c.takeLocked(id)
	if !ok {
		return ErrUnknownTrial
	}
	c.measuredLocked(&l, value)
	return nil
}

// measuredLocked finishes a taken trial with its measured value. Non-finite
// values are never accepted as observations: a NaN sample would silently
// poison every comparison in both phases. The policy is penalty, never
// incumbent — the iteration is recorded as an Invalid failure whose
// value is the penalty (the worst valid observation ×
// guard.DefaultPenaltyFactor, or guard.DefaultFallbackPenalty before
// any), so the strategies steer away, and Best is never contaminated.
func (c *Tuner) measuredLocked(l *lease, value float64) {
	c.nCompleted++
	if math.IsNaN(value) || math.IsInf(value, 0) {
		f := &guard.Failure{
			Kind:    guard.Invalid,
			Algo:    l.trial.Algo,
			Err:     fmt.Errorf("core: non-finite measurement %v", value),
			Penalty: c.t.penalty(),
		}
		c.finishLocked(l, f.Penalty, f)
		return
	}
	c.finishLocked(l, value, nil)
}

// Fail finishes a leased trial as a measurement failure (panic, timeout,
// invalid sample), feeding the failure's penalty — or the tuner's, when
// unset — to both phases; the incumbent is left untouched.
func (c *Tuner) Fail(id uint64, f guard.Failure) error {
	c.mu.Lock()
	defer c.unlock()
	c.reclaimLocked()
	return c.failLocked(id, f)
}

func (c *Tuner) failLocked(id uint64, f guard.Failure) error {
	l, ok := c.takeLocked(id)
	if !ok {
		return ErrUnknownTrial
	}
	c.failedLocked(&l, f)
	return nil
}

// failedLocked finishes a taken trial as a measurement failure.
func (c *Tuner) failedLocked(l *lease, f guard.Failure) {
	c.nFailed++
	f.Algo = l.trial.Algo
	if f.Penalty <= 0 || math.IsNaN(f.Penalty) || math.IsInf(f.Penalty, 0) {
		f.Penalty = c.t.penalty()
	}
	c.finishLocked(l, f.Penalty, &f)
}

// LeaseN draws up to n trials under a single acquisition of the decision
// mutex — the batch amortization of Lease's per-trial lock round-trip
// (and, through the wire layer, of a remote worker's network round-trip).
// It returns fewer than n trials when WithMaxInFlight caps the batch; it
// returns ErrTooManyInFlight only when not even one trial could be
// leased. Batch contents are exactly what n repeated Lease calls would
// have drawn.
func (c *Tuner) LeaseN(n int) ([]Trial, error) {
	if n <= 0 {
		return nil, nil
	}
	c.mu.Lock()
	defer c.unlock()
	now := c.leaseClock()
	c.sweepLocked(now)
	out := make([]Trial, 0, n)
	for i := 0; i < n; i++ {
		tr, err := c.leaseOneLocked(now)
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
func (c *Tuner) CompleteN(results []TrialResult) []error {
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
// CompleteN. Entries marked Released are taken back instead (see
// TrialFailure).
func (c *Tuner) FailN(fails []TrialFailure) []error {
	c.mu.Lock()
	defer c.unlock()
	c.reclaimLocked()
	errs := make([]error, len(fails))
	for i, f := range fails {
		if f.Released {
			errs[i] = c.releaseLocked(f.ID)
		} else {
			errs[i] = c.failLocked(f.ID, f.Failure)
		}
	}
	return errs
}

func (c *Tuner) releaseLocked(id uint64) error {
	l, ok := c.takeLocked(id)
	if !ok {
		return ErrUnknownTrial
	}
	c.releasedLocked(&l)
	return nil
}

// releasedLocked takes back a taken trial that was never measured, as if
// it had not been issued: only the proposer hears of it, so a primary
// proposal is re-issued as its arm's next primary.
func (c *Tuner) releasedLocked(l *lease) {
	c.nReleased++
	if !l.trial.Pinned {
		c.t.proposers[l.trial.Algo].Release(l.prop)
	}
}

// Heartbeat extends the lease deadline of each still-outstanding trial
// to now + the lease timeout and reports, aligned with ids, which ones
// are still alive. A false entry means the trial is no longer leased —
// completed, failed, or already reclaimed — and the worker holding it
// should abandon the measurement rather than complete it. With
// WithLeaseTimeout(0) heartbeats only report liveness; there is no
// deadline to extend.
func (c *Tuner) Heartbeat(ids []uint64) []bool {
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
			c.leases[id] = l
		}
	}
	return alive
}

// Alive reports, aligned with ids, which trials are still leased —
// like Heartbeat, but without extending any deadline. Overload control
// uses it to prune a session's lease ledger without keeping abandoned
// leases alive.
func (c *Tuner) Alive(ids []uint64) []bool {
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
// global best, journaling each under a fresh trial ID. A partitioned
// worker keeps measuring against a local selector and, on reconnect,
// ships its (arm, value) stream here, where replaying it through Report
// is indistinguishable from having observed it live. Phase one is
// deliberately untouched — the configurations were proposed by the
// worker's local tuner, not by this engine's strategies, exactly like
// speculative completions.
//
// Observations with an out-of-range arm or a non-finite value are
// skipped; failed observations carry the worker's penalty as Value and
// are charged to the failure counters. Returns the number applied.
func (c *Tuner) Absorb(obs []nominal.Observation) int {
	if len(obs) == 0 {
		return 0
	}
	c.mu.Lock()
	defer c.unlock()
	t := c.t
	applied := 0
	for _, o := range obs {
		if o.Arm < 0 || o.Arm >= len(t.algos) || math.IsNaN(o.Value) || math.IsInf(o.Value, 0) {
			continue
		}
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
			algo: o.Arm, value: o.Value, fail: fail, trial: c.nextIDLocked(), spec: true,
		}, nil)
		applied++
	}
	c.nAbsorbed += uint64(applied)
	c.dirty = true
	return applied
}

// Checkpoint journals a snapshot of the current state, syncs it and
// closes the segment file — the final durability step of a graceful
// drain or of a tenant's spill, which therefore leaves no file open. A
// later operation reopens the segment. No-op without WithCheckpoint.
func (c *Tuner) Checkpoint() error {
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
func (c *Tuner) LeaseTimeout() time.Duration {
	return c.leaseTTL
}

// takeLocked removes an outstanding lease from the lease map.
func (c *Tuner) takeLocked(id uint64) (lease, bool) {
	l, ok := c.leases[id]
	if !ok {
		return lease{}, false
	}
	delete(c.leases, id)
	c.settleLocked(&l)
	return l, true
}

// reclaimLocked sweeps expired leases, completing each as a timeout
// failure: the penalty reaches the selector, the proposer (releasing a
// wedged primary proposal back to its strategy), and the failure
// counters, so a crashed worker costs one penalized iteration instead of
// a stuck engine. Called at the top of every engine entry point but
// Step, Next and Observe.
func (c *Tuner) reclaimLocked() {
	c.sweepLocked(c.leaseClock())
}

// sweepLocked is reclaimLocked at a clock reading the caller already
// took with leaseClock.
func (c *Tuner) sweepLocked(now time.Time) {
	if c.leaseTTL <= 0 || len(c.leases) == 0 {
		return
	}
	if !c.sweepAt.IsZero() && now.Before(c.sweepAt) {
		return // nothing can have expired yet; skip the map scan
	}
	for id, l := range c.leases {
		if !l.trial.Deadline.IsZero() && now.After(l.trial.Deadline) {
			delete(c.leases, id)
			c.settleLocked(&l)
			c.nExpired++
			f := &guard.Failure{
				Kind:    guard.Timeout,
				Algo:    l.trial.Algo,
				Err:     fmt.Errorf("core: trial %d lease expired", id),
				Penalty: c.t.penalty(),
			}
			c.finishLocked(&l, f.Penalty, f)
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
func (c *Tuner) ReclaimExpired() int {
	c.mu.Lock()
	defer c.unlock()
	before := c.nExpired
	c.sweepAt = time.Time{} // explicit call: force the scan past the watermark
	c.reclaimLocked()
	return int(c.nExpired - before)
}

// finishLocked routes one taken trial through the shared completion path
// and marks the lock-free snapshots for refresh. A trial older than the
// current drift epoch is discarded instead: its measurement belongs to
// the regime whose evidence the reset dropped, and folding it in would
// re-poison the decayed selector (a single stale best-value record
// re-enthrones the dethroned incumbent). Its primary proposal goes back
// to the proposer, which issues it again, to be measured under the new
// regime: phase one does not learn from the old regime either, and
// every report its strategy hears is journaled.
func (c *Tuner) finishLocked(l *lease, value float64, fail *guard.Failure) {
	t := c.t
	if l.epoch != t.driftSeq {
		if !l.trial.Pinned {
			t.proposers[l.trial.Algo].Release(l.prop)
		}
		if d := t.drift; d != nil {
			d.staleDrops++
		}
		return
	}
	var report func(param.Config, float64)
	if !l.trial.Pinned {
		p, prop := t.proposers[l.trial.Algo], l.prop
		// The proposer routes: primary reports reach the strategy,
		// speculative ones only the proposer-local incumbent.
		report = func(param.Config, float64) { p.Report(prop, value) }
	}
	t.applyCompletion(completion{
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
// journals or marks the snapshots dirty releases the mutex here.
func (c *Tuner) unlock() {
	c.t.exported = false // the operation may have changed the state
	c.t.journalSync()
	if c.dirty {
		c.publishLocked()
		c.dirty = false
	}
	c.mu.Unlock()
}

// publishLocked refreshes the snapshots read lock-free by Best, Counts
// and Iterations. Engine operations do not call it directly: they set
// dirty, and unlock publishes once per operation. Only the values that
// changed are stored, and only a changed best allocates.
func (c *Tuner) publishLocked() {
	t := c.t
	if t.bestGen != c.bestGen && t.bestAlgo >= 0 {
		c.best.Store(&bestSnap{algo: t.bestAlgo, cfg: t.bestCfg.Clone(), val: t.bestVal})
		c.bestGen = t.bestGen
	}
	for i, n := range t.counts {
		if c.counts[i].Load() != int64(n) {
			c.counts[i].Store(int64(n))
		}
	}
}

// Next draws the next trial for a single caller: phase two (algorithm
// selection) and phase one (configuration proposal), in one pending slot
// that the following Observe or ObserveFailure completes. The pending
// trial never expires. In degradation mode — the recent failure rate
// crossed the watchdog threshold — Next stops exploring and returns the
// pinned known-good incumbent instead. Next panics when a trial is
// already pending, or when WithMaxInFlight's limit is reached.
func (c *Tuner) Next() (algo int, cfg param.Config) {
	c.mu.Lock()
	defer c.unlock()
	if c.pending.trial.ID != 0 {
		panic("core: Next called with an observation pending")
	}
	if err := c.drawLocked(&c.pending); err != nil {
		panic(err)
	}
	return c.pending.trial.Algo, c.pending.trial.Config.Clone()
}

// takePendingLocked takes the pending trial of Next back for op.
func (c *Tuner) takePendingLocked(op string) lease {
	l := c.pending
	if l.trial.ID == 0 {
		panic("core: " + op + " called without a pending Next")
	}
	c.pending = lease{}
	c.settleLocked(&l)
	return l
}

// Observe reports the measured value of the configuration returned by
// the preceding Next, feeding both tuning phases. A non-finite value is
// recorded as an Invalid failure (see Complete).
func (c *Tuner) Observe(value float64) {
	c.mu.Lock()
	defer c.unlock()
	l := c.takePendingLocked("Observe")
	c.measuredLocked(&l, value)
}

// ObserveFailure reports that the pending measurement failed. Ask/tell
// loops running their measurement through guard.(*Guard).Invoke use this
// to complete the iteration: the failure's penalty (or the tuner's, when
// unset) is fed to both phases, the incumbent is left untouched, and the
// failure is counted in FailureStats.
func (c *Tuner) ObserveFailure(f guard.Failure) {
	c.mu.Lock()
	defer c.unlock()
	l := c.takePendingLocked("ObserveFailure")
	c.failedLocked(&l, f)
}

// Step runs one complete tuning iteration with the given measurement
// function and returns its record, releasing the mutex while m runs so
// concurrent callers proceed. With WithGuard installed the measurement
// runs under the guard: panics, deadline overruns, and invalid samples
// become penalized failures instead of crashes. Step panics when
// WithMaxInFlight's limit is reached.
func (c *Tuner) Step(m Measure) Record {
	var l lease
	c.mu.Lock()
	err := c.drawLocked(&l)
	c.unlock()
	if err != nil {
		panic(err)
	}
	// Should an unguarded m panic, the trial is taken back, as a
	// released lease is, while the panic goes on: it is in no lease map
	// that an expiry sweep would reclaim, and a caller recovering from
	// the panic must not leave it in flight for good.
	measured := false
	defer func() {
		if !measured {
			c.mu.Lock()
			defer c.unlock()
			c.settleLocked(&l)
			c.releasedLocked(&l)
		}
	}()
	cfg := l.trial.Config.Clone()
	var v float64
	var fail *guard.Failure
	if g := c.t.guard; g != nil {
		v, fail = g.Invoke(m, l.trial.Algo, cfg)
	} else {
		v = m(l.trial.Algo, cfg)
	}
	measured = true
	c.mu.Lock()
	defer c.unlock()
	c.settleLocked(&l)
	if fail != nil {
		c.failedLocked(&l, *fail)
	} else {
		c.measuredLocked(&l, v)
	}
	t := c.t
	return Record{Iteration: t.total - 1, Algo: l.trial.Algo, Config: cfg, Value: t.lastValue, Failed: t.lastFailed}
}

// Run executes iters tuning iterations, one after another: the whole
// online tuning loop for applications that let the tuner drive (see
// RunPool for the multi-worker driver).
func (c *Tuner) Run(iters int, m Measure) {
	for i := 0; i < iters; i++ {
		c.Step(m)
	}
}

// RunPool drives the engine with a pool of worker goroutines until total
// trials have been leased, blocking until all complete. Each worker
// loops lease → measure → complete; with WithGuard installed every
// measurement runs under the guard. When WithMaxInFlight is below the
// worker count, workers briefly back off on ErrTooManyInFlight.
func (c *Tuner) RunPool(workers, total int, m Measure) {
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

// Best returns the globally best observation so far — the optimal
// algorithm with its configuration and value; (-1, nil, +Inf) before
// any — without taking the engine lock.
func (c *Tuner) Best() (algo int, cfg param.Config, value float64) {
	b := c.best.Load()
	if b == nil {
		return -1, nil, math.Inf(1)
	}
	return b.algo, b.cfg.Clone(), b.val
}

// Counts returns a copy of the per-algorithm completion counts — the data
// behind the paper's Figures 4 and 8 — without taking the engine lock.
// While an operation is publishing, the copy may mix arms from before
// and after it.
func (c *Tuner) Counts() []int {
	out := make([]int, len(c.counts))
	for i := range c.counts {
		out[i] = int(c.counts[i].Load())
	}
	return out
}

// Iterations returns the number of completed trials without taking the
// engine lock: the sum of the published counts.
func (c *Tuner) Iterations() int {
	n := int64(0)
	for i := range c.counts {
		n += c.counts[i].Load()
	}
	return int(n)
}

// Stats returns the trial-engine event counters.
func (c *Tuner) Stats() EngineStats {
	c.mu.Lock()
	defer c.unlock()
	return EngineStats{
		Leased:    c.nLeased,
		Completed: c.nCompleted,
		Failed:    c.nFailed,
		Expired:   c.nExpired,
		Released:  c.nReleased,
		Absorbed:  c.nAbsorbed,
		InFlight:  c.out,
	}
}

// InFlight returns the number of currently outstanding trials.
func (c *Tuner) InFlight() int {
	c.mu.Lock()
	defer c.unlock()
	return c.out
}

// NumAlgorithms returns the number of algorithm alternatives.
func (c *Tuner) NumAlgorithms() int { return len(c.t.algos) }

// AlgorithmName returns the name of algorithm i.
func (c *Tuner) AlgorithmName(i int) string { return c.t.algos[i].Name }

// Guard exposes the guard installed by WithGuard (nil without it), e.g.
// so ask/tell loops can wrap their measurement with SafeMeasure or
// Invoke; the guard is internally synchronized, so workers may Invoke it
// directly.
func (c *Tuner) Guard() *guard.Guard { return c.t.guard }

// FailureStats returns the failure counters maintained alongside
// Counts. Failures are counted whether they arrive through a guard,
// through Fail or ObserveFailure, through lease expiry, or through the
// non-finite-sample sanitizing of Complete and Observe.
func (c *Tuner) FailureStats() FailureStats {
	c.mu.Lock()
	defer c.unlock()
	return c.t.failureStats()
}

// Degraded reports whether the tuner is currently in degradation mode,
// pinning the known-good incumbent instead of exploring.
func (c *Tuner) Degraded() bool {
	c.mu.Lock()
	defer c.unlock()
	return c.t.degraded
}

// History returns the per-iteration records, in completion order: every
// iteration of this process plus, after a resume, the snapshot's history
// tail and the replayed journal. It is empty with WithoutHistory, which
// every service-built engine uses. The records are deep copies: mutating
// a returned Record's Config does not touch the tuner's log.
func (c *Tuner) History() []Record {
	c.mu.Lock()
	defer c.unlock()
	h := make([]Record, len(c.t.history))
	copy(h, c.t.history)
	for i := range h {
		h[i].Config = h[i].Config.Clone()
	}
	return h
}

// ValuesOf returns the measured values of one algorithm in completion
// order — the per-algorithm timeline behind the paper's Figure 5. With
// WithoutHistory, which every service-built engine uses, the timeline is
// bounded: only the most recent values (between DefaultValuesTail and
// 2×DefaultValuesTail of them) are retained.
func (c *Tuner) ValuesOf(algo int) []float64 {
	c.mu.Lock()
	defer c.unlock()
	return slices.Clone(c.t.perAlgoHistory[algo])
}

// BestConfigOf returns the best observed configuration and value for one
// specific algorithm (phase one's incumbent, merged with speculative
// completions).
func (c *Tuner) BestConfigOf(algo int) (param.Config, float64) {
	c.mu.Lock()
	defer c.unlock()
	return c.t.proposers[algo].Best()
}

// Strategy exposes algorithm i's phase-one strategy (for inspection).
func (c *Tuner) Strategy(i int) search.Strategy { return c.t.strategies[i] }

// Selector exposes the phase-two selector (for inspection).
func (c *Tuner) Selector() nominal.Selector { return c.t.selector }
