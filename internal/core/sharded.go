package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/guard"
	"repro/internal/nominal"
	"repro/internal/param"
	"repro/internal/search"
)

// DefaultMergeEvery is the per-shard observation count between merges of
// a shard's delta into the authoritative selector (see WithMergeEvery).
const DefaultMergeEvery = 16

// shardIDBase offsets sharded trial IDs: the inner engine issues IDs
// monotonically from 0 (and journal resume continues above the highest
// journaled one), so starting shard tickets at a 2³² multiple above both
// keeps the two ID spaces disjoint forever.
const shardIDBase = uint64(1) << 32

// ErrNotMergeable is returned by NewShardedEngine when more than one
// shard is requested but the selector does not implement
// nominal.Mergeable (for example a guard.Quarantine wrapper). Sharding
// replicates selector state per shard; a selector that cannot fork and
// merge cannot be replicated.
var ErrNotMergeable = errors.New("core: selector does not implement nominal.Mergeable")

// shardConfig collects the sharded-scope options before construction.
type shardConfig struct {
	shards     int
	mergeEvery int
}

// ShardedEngine partitions workers across N selector shards, each
// owning a private fork of the phase-two selector plus a local lease
// table under its own mutex. Trials lease and complete entirely within
// one shard — no global lock, no per-trial snapshot publication — and
// each shard accumulates its completions as an observation delta. Every
// K completions (WithMergeEvery), and on every Best/Counts read, the
// shard folds its delta into the authoritative ConcurrentTuner under the
// existing decision mutex: the observations replay through the exact
// applyCompletion path a live trial takes (so counters, watchdog,
// incumbent, and the write-ahead journal all see them identically — a
// journal written by a sharded engine resumes into a concurrent or a
// sharded engine alike), the whole batch is journaled under a single
// fsync, and the shard catches its replica up by replaying the other
// shards' folded observations from the engine's observation log (its own
// it already saw live), then adopts the authoritative incumbents for its
// speculators. Per-trial contention on the decision mutex becomes
// per-epoch contention, and the replica catch-up costs O(lag) reports
// instead of a deep selector copy per fold.
//
// Phase one: the authoritative strategies advance only at fold time.
// Between folds each algorithm's single genuine ("primary") proposal is
// parked in a one-slot channel any shard may claim; every other trial of
// that algorithm runs a shard-local speculative configuration
// (search.Speculator), whose result reaches the strategy's incumbent
// tracking at the next fold — the same primary/speculative split the
// ConcurrentTuner uses, relaxed across shards.
//
// With one shard (the default) sharding is disabled: every call
// delegates directly to the inner ConcurrentTuner, which preserves the
// sequential tuner's exact decision sequence for single-flight callers.
//
// The replication cost is staleness, not correctness: a shard's replica
// lags the authoritative selector by at most K·N observations, and the
// merge algebra (nominal.Mergeable) makes a folded observation
// indistinguishable from a live one.
type ShardedEngine struct {
	inner      *ConcurrentTuner
	n          int
	mergeEvery int
	base       uint64
	shardMax   int // per-shard in-flight cap (0 = unlimited)
	shards     []*shard

	// primaries holds, per algorithm, the strategy's one genuine
	// outstanding proposal, claimable by any shard without the decision
	// mutex; refilled under it at every fold.
	primaries []chan search.Proposal

	// log is the append-only stream of non-pinned observations folded
	// into the authoritative selector, in fold order. A shard catches its
	// replica up by replaying the entries past its synced mark (skipping
	// its own, which it reported live), which makes the replica's report
	// stream a reordering of the authoritative one without deep-copying
	// the selector every fold. Guarded by the inner decision mutex;
	// entries are immutable once appended. logBase is the absolute index
	// of log[0]: the prefix every shard has replayed is compacted away,
	// so the log's steady-state length is bounded by the largest replica
	// lag, not the run length.
	log     []logObs
	logBase int

	rr      atomic.Uint64 // round-robin router for shardless Lease calls
	pending atomic.Int64  // completions recorded in shard deltas, not yet folded

	nLeased, nCompleted, nFailed, nExpired, nAbsorbed atomic.Uint64
}

// shard is one selector partition. foldMu serializes folds of this
// shard (so delta batches reach the journal in recording order); mu
// guards everything else and is never held while taking the inner
// engine's mutex.
type shard struct {
	idx    int
	foldMu sync.Mutex

	mu       sync.Mutex
	replica  nominal.Selector
	rng      *rand.Rand
	spec     []*search.Speculator
	inFlight []int
	leases   map[uint64]*shardLease
	seq      uint64
	delta    []shardObs
	spare    []shardObs // folded batch's backing array, recycled at the next swap

	// synced is the absolute engine-log index this shard's replica has
	// replayed through; guarded by the inner decision mutex (it is read
	// and advanced only while folding, under that mutex).
	synced int
	// lagBuf is the fold-private scratch the catch-up slice is copied
	// into before the decision mutex drops (log compaction may shift the
	// live view); guarded by foldMu.
	lagBuf []logObs

	// Authoritative state cached at the last fold.
	pinnedAlgo int // degradation-mode incumbent to pin; -1 when healthy
	pinnedCfg  param.Config
	penalty    float64

	// Drift propagation: driftSeen is the authoritative drift sequence
	// number this shard's replica reflects (advanced only while folding
	// under both foldMu and mu; leases read it under mu to epoch-stamp
	// themselves); a fold observing a newer sequence re-forks the
	// replica — the authoritative selector was reset, so replaying the
	// lag into the stale replica would resurrect exactly the evidence
	// the reset dropped. probeQ (guarded by mu) holds this shard's
	// share of the reset's forced re-probes.
	driftSeen uint64
	probeQ    []int
}

// logObs is one folded observation in the engine's catch-up log.
type logObs struct {
	arm   int32
	shard int32
	value float64
}

// logCompactAt is the replayed-prefix length past which the log is
// compacted in place (no allocation: entries shift down the same
// backing array).
const logCompactAt = 1024

// replicaReforkAt is the catch-up lag past which replaying the log into
// a replica costs more than deep-copying the authoritative selector
// (whose per-arm tail is bounded): a shard that far behind — typically
// one whose workers starved for a long stretch — re-forks instead.
const replicaReforkAt = 512

// shardLease records an outstanding trial. epoch is the shard's drift
// sequence at lease time; a completion folding in after a drift reset
// is discarded (see flushShard).
type shardLease struct {
	trial   Trial
	prop    search.Proposal
	primary bool
	epoch   uint64
}

// shardObs is one completed trial awaiting its fold: everything
// applyCompletion needs, plus the proposal handle for phase-one routing.
type shardObs struct {
	id       uint64
	algo     int
	cfg      param.Config
	value    float64 // measurement, or the penalty when failed
	failKind guard.Kind
	failed   bool
	pinned   bool
	prop     search.Proposal
	primary  bool
	epoch    uint64 // lease-time drift sequence (see shardLease)
}

// NewShardedEngine builds a tuner, wraps it in the trial engine, and
// partitions selection across WithShards(n) shards. It accepts every
// option scope. With more than one shard the selector must implement
// nominal.Mergeable (ErrNotMergeable otherwise); with one shard (the
// default) the engine is a transparent wrapper over NewConcurrentTuner.
// With WithCheckpoint on a directory holding a checkpoint, the engine
// resumes exactly as NewConcurrentTuner does (shard deltas were
// journaled through the same write-ahead path), and fresh shards fork
// off the recovered selector.
func NewShardedEngine(algos []Algorithm, selector nominal.Selector, factory search.Factory, seed int64, opts ...Option) (*ShardedEngine, error) {
	cfg := shardConfig{shards: 1, mergeEvery: DefaultMergeEvery}
	rest := splitShardedOptions(opts, &cfg)
	inner, err := NewConcurrentTuner(algos, selector, factory, seed, rest...)
	if err != nil {
		return nil, err
	}
	return newShardedOver(inner, cfg)
}

// newShardedOver partitions an existing engine into cfg.shards shards.
func newShardedOver(c *ConcurrentTuner, cfg shardConfig) (*ShardedEngine, error) {
	e := &ShardedEngine{inner: c, n: cfg.shards, mergeEvery: cfg.mergeEvery}
	if e.n <= 1 {
		e.n = 1
		return e, nil
	}
	t := c.t
	m, ok := t.selector.(nominal.Mergeable)
	if !ok {
		return nil, fmt.Errorf("core: %d shards over selector %s: %w", e.n, t.selector.Name(), ErrNotMergeable)
	}
	e.base = shardIDBase
	for e.base <= c.nextID {
		e.base += shardIDBase
	}
	if c.maxInFlight > 0 {
		e.shardMax = (c.maxInFlight + e.n - 1) / e.n
	}
	e.primaries = make([]chan search.Proposal, len(t.algos))
	for i := range e.primaries {
		e.primaries[i] = make(chan search.Proposal, 1)
	}

	c.mu.Lock()
	e.refillPrimariesLocked()
	pen := t.penalty()
	pinAlgo, pinCfg := degradedPinLocked(t)
	bases, baseVals := proposerBestsLocked(c)
	driftSeq := t.driftSeq
	c.unlock()

	e.shards = make([]*shard, e.n)
	for i := range e.shards {
		s := &shard{
			idx:        i,
			replica:    m.Fork(),
			rng:        rand.New(rand.NewSource(t.seed ^ (0x6a09e667bb67ae85 * int64(i+1)))),
			spec:       make([]*search.Speculator, len(t.algos)),
			inFlight:   make([]int, len(t.algos)),
			leases:     make(map[uint64]*shardLease),
			delta:      make([]shardObs, 0, cfg.mergeEvery+8),
			spare:      make([]shardObs, 0, cfg.mergeEvery+8),
			pinnedAlgo: pinAlgo,
			penalty:    pen,
			driftSeen:  driftSeq,
		}
		if pinCfg != nil {
			s.pinnedCfg = pinCfg.Clone()
		}
		for a := range t.algos {
			s.spec[a] = search.NewSpeculator(t.algos[a].space(),
				t.seed^(0x9e3779b9*int64(i*len(t.algos)+a+1)))
			if bases[a] != nil {
				s.spec[a].SetBase(bases[a], baseVals[a])
			}
		}
		e.shards[i] = s
	}
	return e, nil
}

// refillPrimariesLocked tops up each algorithm's one-slot primary
// channel with the strategy's next genuine proposal, under the decision
// mutex. An algorithm whose primary is leased out (or still parked) is
// skipped; the proposer guarantees one genuine proposal outstanding at a
// time.
func (e *ShardedEngine) refillPrimariesLocked() {
	for i, p := range e.inner.proposers {
		if p.PrimaryOutstanding() {
			continue
		}
		select {
		case e.primaries[i] <- p.Propose():
		default:
		}
	}
}

// degradedPinLocked returns the incumbent shards must pin while the
// watchdog has the tuner degraded, or (-1, nil).
func degradedPinLocked(t *Tuner) (int, param.Config) {
	if t.degraded && t.bestAlgo >= 0 {
		return t.bestAlgo, t.bestCfg.Clone()
	}
	return -1, nil
}

// proposerBestsLocked snapshots each algorithm's incumbent for the
// speculator rebroadcast.
func proposerBestsLocked(c *ConcurrentTuner) ([]param.Config, []float64) {
	bases := make([]param.Config, len(c.proposers))
	vals := make([]float64, len(c.proposers))
	for i, p := range c.proposers {
		if cfg, val := p.Best(); cfg != nil {
			bases[i] = cfg.Clone()
			vals[i] = val
		}
	}
	return bases, vals
}

// Shards returns the shard count (1 when sharding is disabled).
func (e *ShardedEngine) Shards() int { return e.n }

// shardOf maps a trial ID back to its shard, or nil for IDs the sharded
// path never issued.
func (e *ShardedEngine) shardOf(id uint64) *shard {
	if id < e.base {
		return nil
	}
	return e.shards[(id-e.base)%uint64(e.n)]
}

// Lease draws one trial from the next shard in round-robin order.
// Workers with a stable identity get better locality from LeaseNOn.
func (e *ShardedEngine) Lease() (Trial, error) {
	if e.n == 1 {
		return e.inner.Lease()
	}
	trs, err := e.LeaseNOn(int(e.rr.Add(1)-1), 1)
	if err != nil {
		return Trial{}, err
	}
	return trs[0], nil
}

// LeaseN draws up to n trials from the next shard in round-robin order.
func (e *ShardedEngine) LeaseN(n int) ([]Trial, error) {
	if e.n == 1 {
		return e.inner.LeaseN(n)
	}
	return e.LeaseNOn(int(e.rr.Add(1)-1), n)
}

// LeaseNOn draws up to n trials from shard shardIdx (taken modulo the
// shard count): phase two runs on the shard's selector replica, phase
// one hands out the algorithm's parked primary proposal to the first
// taker and shard-local speculative configurations otherwise. Pinning a
// worker to a shard (the tuned server assigns one per session, RunPool
// one per worker) keeps its trials on one lease table and one replica.
func (e *ShardedEngine) LeaseNOn(shardIdx, n int) ([]Trial, error) {
	if n <= 0 {
		return nil, nil
	}
	if e.n == 1 {
		return e.inner.LeaseN(n)
	}
	s := e.shards[((shardIdx%e.n)+e.n)%e.n]
	s.mu.Lock()
	expired := s.sweepLocked(e)
	out := make([]Trial, 0, n)
	for i := 0; i < n; i++ {
		if e.shardMax > 0 && len(s.leases) >= e.shardMax {
			break
		}
		out = append(out, s.leaseOneLocked(e))
	}
	flush := len(s.delta) >= e.mergeEvery
	s.mu.Unlock()
	e.nExpired.Add(uint64(expired))
	e.nLeased.Add(uint64(len(out)))
	if flush {
		e.flushShard(s)
	}
	if len(out) == 0 {
		return nil, ErrTooManyInFlight
	}
	return out, nil
}

// leaseOn is LeaseNOn for a single trial without the batch slice — the
// in-process worker pool's hot path.
func (e *ShardedEngine) leaseOn(shardIdx int) (Trial, error) {
	s := e.shards[((shardIdx%e.n)+e.n)%e.n]
	s.mu.Lock()
	expired := s.sweepLocked(e)
	var tr Trial
	leased := false
	if e.shardMax <= 0 || len(s.leases) < e.shardMax {
		tr = s.leaseOneLocked(e)
		leased = true
	}
	flush := len(s.delta) >= e.mergeEvery
	s.mu.Unlock()
	e.nExpired.Add(uint64(expired))
	if leased {
		e.nLeased.Add(1)
	}
	if flush {
		e.flushShard(s)
	}
	if !leased {
		return Trial{}, ErrTooManyInFlight
	}
	return tr, nil
}

// leaseOneLocked draws one trial entirely within the shard.
func (s *shard) leaseOneLocked(e *ShardedEngine) Trial {
	id := e.base + s.seq*uint64(e.n) + uint64(s.idx)
	s.seq++
	tr := Trial{ID: id}
	var prop search.Proposal
	var stored param.Config // the engine's private copy of the config
	primary := false
	if s.pinnedAlgo >= 0 {
		tr.Algo = s.pinnedAlgo
		tr.Config = s.pinnedCfg.Clone()
		tr.Pinned = true
		// pinnedCfg is replaced wholesale at rebroadcasts, never mutated
		// in place, so the lease can share it.
		stored = s.pinnedCfg
	} else {
		if len(s.probeQ) > 0 {
			// Drift-reset re-probe handed to this shard at its last
			// fold: the arm is forced, phase one proposes normally.
			tr.Algo = s.probeQ[0]
			s.probeQ = s.probeQ[:copy(s.probeQ, s.probeQ[1:])]
		} else if ia, ok := s.replica.(nominal.InFlightAware); ok {
			tr.Algo = ia.SelectInFlight(s.rng, s.inFlight)
		} else {
			tr.Algo = s.replica.Select(s.rng)
		}
		select {
		case prop = <-e.primaries[tr.Algo]:
			primary = true
			stored = prop.Config.Clone()
		default:
			// The speculator's draw is a fresh allocation nobody else
			// holds: keep it as the private copy and clone for the caller.
			prop = search.Proposal{Config: s.spec[tr.Algo].Next()}
			stored = prop.Config
		}
		tr.Config = prop.Config.Clone()
		tr.Speculative = !primary
	}
	if ttl := e.inner.leaseTTL; ttl > 0 {
		tr.Deadline = e.inner.now().Add(ttl)
	}
	st := tr
	st.Config = stored
	s.leases[id] = &shardLease{trial: st, prop: prop, primary: primary, epoch: s.driftSeen}
	s.inFlight[tr.Algo]++
	return tr
}

// Complete finishes a leased trial: the shard's replica and speculator
// learn immediately (so the very next local lease benefits), and the
// observation joins the shard's delta for the next fold. Non-finite
// values become Invalid failures with the shard's cached penalty. On a
// durable engine (WithCheckpoint) the shard folds before Complete
// returns, so the completion is journaled and synced once acknowledged.
func (e *ShardedEngine) Complete(id uint64, value float64) error {
	if e.n == 1 {
		return e.inner.Complete(id, value)
	}
	err := e.complete(id, value)
	e.settle()
	return err
}

// complete records one completion in its shard's delta. It folds a full
// delta itself only when the engine is not durable; a durable engine's
// caller folds once, in settle.
func (e *ShardedEngine) complete(id uint64, value float64) error {
	s := e.shardOf(id)
	if s == nil {
		return ErrUnknownTrial
	}
	s.mu.Lock()
	l, ok := s.leases[id]
	if !ok {
		s.mu.Unlock()
		return ErrUnknownTrial
	}
	delete(s.leases, id)
	s.inFlight[l.trial.Algo]--
	obs := shardObs{
		id: id, algo: l.trial.Algo, cfg: l.trial.Config,
		prop: l.prop, primary: l.primary, pinned: l.trial.Pinned,
		epoch: l.epoch,
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		obs.failed = true
		obs.failKind = guard.Invalid
		obs.value = s.penalty
	} else {
		obs.value = value
	}
	s.recordLocked(e, obs)
	flush := len(s.delta) >= e.mergeEvery && !e.durable()
	s.mu.Unlock()
	e.nCompleted.Add(1)
	if flush {
		e.flushShard(s)
	}
	return nil
}

// Fail finishes a leased trial as a measurement failure; the failure's
// penalty (or the shard's cached one) feeds the replica now and both
// authoritative phases at the fold, which a durable engine runs before
// Fail returns (see Complete).
func (e *ShardedEngine) Fail(id uint64, f guard.Failure) error {
	if e.n == 1 {
		return e.inner.Fail(id, f)
	}
	err := e.fail(id, f)
	e.settle()
	return err
}

// fail is complete for a failure.
func (e *ShardedEngine) fail(id uint64, f guard.Failure) error {
	s := e.shardOf(id)
	if s == nil {
		return ErrUnknownTrial
	}
	s.mu.Lock()
	l, ok := s.leases[id]
	if !ok {
		s.mu.Unlock()
		return ErrUnknownTrial
	}
	delete(s.leases, id)
	s.inFlight[l.trial.Algo]--
	p := f.Penalty
	if p <= 0 || math.IsNaN(p) || math.IsInf(p, 0) {
		p = s.penalty
	}
	s.recordLocked(e, shardObs{
		id: id, algo: l.trial.Algo, cfg: l.trial.Config, value: p,
		failed: true, failKind: f.Kind,
		prop: l.prop, primary: l.primary, pinned: l.trial.Pinned,
		epoch: l.epoch,
	})
	flush := len(s.delta) >= e.mergeEvery && !e.durable()
	s.mu.Unlock()
	e.nFailed.Add(1)
	if flush {
		e.flushShard(s)
	}
	return nil
}

// CompleteN finishes a batch, routing each completion to its shard; a
// durable engine then folds once, as Complete does.
func (e *ShardedEngine) CompleteN(results []TrialResult) []error {
	if e.n == 1 {
		return e.inner.CompleteN(results)
	}
	errs := make([]error, len(results))
	for i, r := range results {
		errs[i] = e.complete(r.ID, r.Value)
	}
	e.settle()
	return errs
}

// FailN fails a batch, routing each failure to its shard, with
// CompleteN's folding.
func (e *ShardedEngine) FailN(fails []TrialFailure) []error {
	if e.n == 1 {
		return e.inner.FailN(fails)
	}
	errs := make([]error, len(fails))
	for i, f := range fails {
		errs[i] = e.fail(f.ID, f.Failure)
	}
	e.settle()
	return errs
}

// durable reports whether the engine journals (WithCheckpoint).
func (e *ShardedEngine) durable() bool { return e.inner.t.ckptDir != "" }

// settle ends a completing call. A durable engine acknowledges no
// completion before it is journaled and synced, so it folds every shard
// here (a shard with nothing recorded returns without taking the
// decision mutex); an in-memory engine folds every K (WithMergeEvery).
func (e *ShardedEngine) settle() {
	if e.durable() {
		e.Flush()
	}
}

// Heartbeat extends still-outstanding leases and reports liveness,
// exactly as ConcurrentTuner.Heartbeat, per shard.
func (e *ShardedEngine) Heartbeat(ids []uint64) []bool {
	if e.n == 1 {
		return e.inner.Heartbeat(ids)
	}
	alive := make([]bool, len(ids))
	ttl := e.inner.leaseTTL
	var deadline time.Time
	if ttl > 0 {
		deadline = e.inner.now().Add(ttl)
	}
	for i, id := range ids {
		s := e.shardOf(id)
		if s == nil {
			continue
		}
		s.mu.Lock()
		if l, ok := s.leases[id]; ok {
			alive[i] = true
			if ttl > 0 {
				l.trial.Deadline = deadline
			}
		}
		s.mu.Unlock()
	}
	return alive
}

// Alive reports, aligned with ids, which trials are still leased,
// without extending any deadline (compare Heartbeat).
func (e *ShardedEngine) Alive(ids []uint64) []bool {
	if e.n == 1 {
		return e.inner.Alive(ids)
	}
	alive := make([]bool, len(ids))
	for i, id := range ids {
		s := e.shardOf(id)
		if s == nil {
			continue
		}
		s.mu.Lock()
		_, alive[i] = s.leases[id]
		s.mu.Unlock()
	}
	return alive
}

// Absorb folds externally-measured observations into the authoritative
// selector (see ConcurrentTuner.Absorb) and appends them to the engine
// log under a sentinel shard index, so every shard replica replays them
// at its next fold — absorbed observations reach the shards exactly
// like another shard's folded delta.
func (e *ShardedEngine) Absorb(obs []nominal.Observation) int {
	if e.n == 1 {
		return e.inner.Absorb(obs)
	}
	c := e.inner
	c.mu.Lock()
	applied := c.absorbLocked(obs)
	for _, o := range obs {
		if o.Arm < 0 || o.Arm >= len(c.t.algos) || math.IsNaN(o.Value) || math.IsInf(o.Value, 0) {
			continue
		}
		e.log = append(e.log, logObs{arm: int32(o.Arm), shard: -1, value: o.Value})
	}
	c.unlock()
	e.nAbsorbed.Add(uint64(applied))
	return applied
}

// Checkpoint folds every shard delta and forces a snapshot (see
// ConcurrentTuner.Checkpoint).
func (e *ShardedEngine) Checkpoint() error {
	e.Flush()
	return e.inner.Checkpoint()
}

// recordLocked feeds one completed observation into the shard's local
// state and delta. Pinned runs bypass the replica, mirroring
// applyCompletion's handling at fold time.
func (s *shard) recordLocked(e *ShardedEngine, o shardObs) {
	if !o.pinned {
		s.replica.Report(o.algo, o.value)
		if !o.failed {
			s.spec[o.algo].Observe(o.cfg, o.value)
		}
	}
	s.delta = append(s.delta, o)
	e.pending.Add(1)
}

// sweepLocked reclaims the shard's expired leases as Timeout failures
// into the delta, returning how many it reclaimed.
func (s *shard) sweepLocked(e *ShardedEngine) int {
	ttl := e.inner.leaseTTL
	if ttl <= 0 || len(s.leases) == 0 {
		return 0
	}
	now := e.inner.now()
	n := 0
	for id, l := range s.leases {
		if !l.trial.Deadline.IsZero() && now.After(l.trial.Deadline) {
			delete(s.leases, id)
			s.inFlight[l.trial.Algo]--
			s.recordLocked(e, shardObs{
				id: id, algo: l.trial.Algo, cfg: l.trial.Config, value: s.penalty,
				failed: true, failKind: guard.Timeout,
				prop: l.prop, primary: l.primary, pinned: l.trial.Pinned,
				epoch: l.epoch,
			})
			n++
		}
	}
	return n
}

// flushShard folds the shard's accumulated delta into the authoritative
// tuner and rebroadcasts the merged state back to the shard. Lock
// discipline: foldMu serializes this shard's folds; the shard mutex and
// the decision mutex are each taken and released in turn, never nested.
func (e *ShardedEngine) flushShard(s *shard) {
	s.foldMu.Lock()
	defer s.foldMu.Unlock()

	s.mu.Lock()
	expired := s.sweepLocked(e)
	batch := s.delta
	if len(batch) == 0 {
		s.mu.Unlock()
		e.nExpired.Add(uint64(expired))
		return
	}
	// Swap in the previously folded batch's backing array: deltas
	// alternate between two arrays in steady state, allocation-free.
	s.delta = s.spare[:0]
	s.spare = nil
	s.mu.Unlock()
	e.nExpired.Add(uint64(expired))

	c := e.inner
	t := c.t
	c.mu.Lock()
	for i := range batch {
		o := &batch[i]
		if o.epoch != t.driftSeq {
			// Leased before a drift reset (possibly one fired earlier in
			// this very batch): the measurement is stale-regime evidence,
			// and folding it in would resurrect exactly the records the
			// reset dropped — one stale best value re-enthrones the
			// dethroned incumbent. Unblock phase one and discard; the
			// observation is never journaled, so resume replays the same
			// stream the selector actually saw.
			if o.primary {
				c.proposers[o.algo].Report(o.prop, o.value)
			}
			if t.drift != nil {
				t.drift.staleDrops++
			}
			continue
		}
		var fail *guard.Failure
		if o.failed {
			fail = &guard.Failure{
				Kind: o.failKind, Algo: o.algo,
				Err:     fmt.Errorf("core: sharded trial %d failed", o.id),
				Penalty: o.value,
			}
		}
		if !o.pinned {
			if o.primary {
				c.proposers[o.algo].Report(o.prop, o.value)
			} else {
				// Speculative results route through the proposer with a
				// non-primary proposal so its incumbent advances without
				// touching the strategy's ask/tell alternation.
				c.proposers[o.algo].Report(search.Proposal{Config: o.cfg}, o.value)
			}
		}
		t.applyCompletion(completion{
			algo: o.algo, cfg: o.cfg, value: o.value, fail: fail,
			pinned: o.pinned, trial: o.id, spec: !o.primary && !o.pinned,
		}, nil)
		if !o.pinned {
			e.log = append(e.log, logObs{arm: int32(o.algo), shard: int32(s.idx), value: o.value})
		}
	}
	e.refillPrimariesLocked()
	c.dirty = true

	// Snapshot the merged state for the rebroadcast: copy the catch-up
	// slice out (compaction may shift the live log), advance the synced
	// mark, and compact the fully replayed prefix away. A shard too far
	// behind re-forks the whole selector instead of replaying the lag,
	// and so does a shard whose replica predates a drift reset — the
	// authoritative selector dropped evidence the lag replay would
	// resurrect.
	driftSeq := t.driftSeq
	driftReset := s.driftSeen != driftSeq
	var probeShare []int
	if t.drift != nil && len(t.drift.probeQ) > 0 {
		// Forced re-probes drain on every fold, not just the re-forking
		// one: the ceil division leaves a remainder behind once each
		// shard has taken its share, and any shard can run it.
		probeShare = t.drift.takeProbes((len(t.drift.probeQ) + e.n - 1) / e.n)
	}
	s.lagBuf = s.lagBuf[:0]
	var fork nominal.Selector
	if driftReset || len(e.log)-(s.synced-e.logBase) > replicaReforkAt {
		fork = t.selector.(nominal.Mergeable).Fork()
	} else {
		for _, o := range e.log[s.synced-e.logBase:] {
			if int(o.shard) != s.idx {
				s.lagBuf = append(s.lagBuf, o)
			}
		}
	}
	s.synced = e.logBase + len(e.log)
	e.compactLogLocked()
	pen := t.penalty()
	pinAlgo, pinCfg := degradedPinLocked(t)
	bases, baseVals := proposerBestsLocked(c)
	c.unlock()
	e.pending.Add(-int64(len(batch)))

	// Rebroadcast: replay the other shards' folded observations into the
	// replica (its own completions it reported live), adopt the
	// authoritative penalty, pin and incumbents, and re-apply the
	// speculator observations recorded since the delta swap above (their
	// replica reports are untouched; only SetBase rewound the bases).
	s.mu.Lock()
	if fork != nil {
		// The fork holds everything folded so far; completions recorded
		// since the delta swap were live-reported to the old replica
		// only, so catch the fork up before it takes over.
		for i := range s.delta {
			if o := &s.delta[i]; !o.pinned {
				fork.Report(o.algo, o.value)
			}
		}
		s.replica = fork
	}
	for _, o := range s.lagBuf {
		s.replica.Report(int(o.arm), o.value)
	}
	s.driftSeen = driftSeq
	if len(probeShare) > 0 {
		s.probeQ = append(s.probeQ, probeShare...)
	}
	s.penalty = pen
	s.pinnedAlgo = pinAlgo
	s.pinnedCfg = nil
	if pinCfg != nil {
		s.pinnedCfg = pinCfg.Clone()
	}
	for a, sp := range s.spec {
		if bases[a] != nil {
			sp.SetBase(bases[a], baseVals[a])
		}
	}
	for i := range s.delta {
		o := &s.delta[i]
		if !o.failed && !o.pinned {
			s.spec[o.algo].Observe(o.cfg, o.value)
		}
	}
	s.spare = batch[:0]
	s.mu.Unlock()
}

// compactLogLocked drops the log prefix every shard has replayed, in
// place, once it is long enough to matter. Caller holds the decision
// mutex.
func (e *ShardedEngine) compactLogLocked() {
	min := e.shards[0].synced
	for _, s := range e.shards[1:] {
		if s.synced < min {
			min = s.synced
		}
	}
	if k := min - e.logBase; k >= logCompactAt {
		n := copy(e.log, e.log[k:])
		e.log = e.log[:n]
		e.logBase = min
	}
}

// Flush folds every shard's outstanding delta into the authoritative
// selector. Best, Counts and the stats readers call it implicitly.
func (e *ShardedEngine) Flush() {
	if e.n == 1 {
		return
	}
	for _, s := range e.shards {
		e.flushShard(s)
	}
}

// ReclaimExpired sweeps expired leases on every shard (and the inner
// engine), returning how many trials were reclaimed as timeouts.
func (e *ShardedEngine) ReclaimExpired() int {
	if e.n == 1 {
		return e.inner.ReclaimExpired()
	}
	total := 0
	for _, s := range e.shards {
		s.mu.Lock()
		k := s.sweepLocked(e)
		flush := len(s.delta) >= e.mergeEvery
		s.mu.Unlock()
		e.nExpired.Add(uint64(k))
		total += k
		if flush {
			e.flushShard(s)
		}
	}
	return total
}

// Best merges all shard deltas and returns the authoritative best
// observation — the "merge on Best() reads" half of the staleness bound.
func (e *ShardedEngine) Best() (algo int, cfg param.Config, value float64) {
	e.Flush()
	return e.inner.Best()
}

// Counts merges all shard deltas and returns the per-algorithm
// completion counts.
func (e *ShardedEngine) Counts() []int {
	e.Flush()
	return e.inner.Counts()
}

// Iterations returns the number of completed trials, folded or not,
// without forcing a merge.
func (e *ShardedEngine) Iterations() int {
	return e.inner.Iterations() + int(e.pending.Load())
}

// Stats returns the engine event counters across all shards.
func (e *ShardedEngine) Stats() EngineStats {
	if e.n == 1 {
		return e.inner.Stats()
	}
	inFlight := 0
	for _, s := range e.shards {
		s.mu.Lock()
		inFlight += len(s.leases)
		s.mu.Unlock()
	}
	return EngineStats{
		Leased:    e.nLeased.Load(),
		Completed: e.nCompleted.Load(),
		Failed:    e.nFailed.Load(),
		Expired:   e.nExpired.Load(),
		Absorbed:  e.nAbsorbed.Load(),
		InFlight:  inFlight,
	}
}

// InFlight returns the number of currently outstanding leases.
func (e *ShardedEngine) InFlight() int { return e.Stats().InFlight }

// NumAlgorithms returns the number of algorithm alternatives.
func (e *ShardedEngine) NumAlgorithms() int { return e.inner.NumAlgorithms() }

// AlgorithmName returns the name of algorithm i.
func (e *ShardedEngine) AlgorithmName(i int) string { return e.inner.AlgorithmName(i) }

// LeaseTimeout returns the lease deadline duration.
func (e *ShardedEngine) LeaseTimeout() time.Duration { return e.inner.LeaseTimeout() }

// Guard exposes the guard installed by WithGuard (nil without it).
func (e *ShardedEngine) Guard() *guard.Guard { return e.inner.Guard() }

// Degraded reports whether the watchdog currently pins the incumbent
// (as of the last fold).
func (e *ShardedEngine) Degraded() bool { return e.inner.Degraded() }

// FailureStats merges all shard deltas and returns the failure counters.
func (e *ShardedEngine) FailureStats() FailureStats {
	e.Flush()
	return e.inner.FailureStats()
}

// BestConfigOf merges and returns phase one's incumbent for one
// algorithm.
func (e *ShardedEngine) BestConfigOf(algo int) (param.Config, float64) {
	e.Flush()
	return e.inner.BestConfigOf(algo)
}

// History merges and returns the per-iteration records, in fold order.
// It is empty for an engine built WithoutHistory, as EngineSpec.Build
// builds every engine (see Tuner.History).
func (e *ShardedEngine) History() []Record {
	e.Flush()
	return e.inner.History()
}

// CheckpointErr merges and returns the most recent checkpoint I/O error.
func (e *ShardedEngine) CheckpointErr() error {
	e.Flush()
	return e.inner.CheckpointErr()
}

// Engine exposes the wrapped ConcurrentTuner. With more than one shard
// it must only be used for reads; leasing from it directly would bypass
// the shard partition.
func (e *ShardedEngine) Engine() *ConcurrentTuner { return e.inner }

// RunPool drives the engine with a pool of worker goroutines until total
// trials have been leased, each worker pinned to the shard w mod N,
// blocking until all complete and every delta is folded. Semantics match
// ConcurrentTuner.RunPool.
func (e *ShardedEngine) RunPool(workers, total int, m Measure) {
	if e.n == 1 {
		e.inner.RunPool(workers, total, m)
		return
	}
	if workers < 1 {
		workers = 1
	}
	g := e.inner.t.guard
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(shardIdx int) {
			defer wg.Done()
			for next.Add(1) <= int64(total) {
				var tr Trial
				for {
					var err error
					tr, err = e.leaseOn(shardIdx)
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
						e.Fail(tr.ID, *fail)
					} else {
						e.Complete(tr.ID, v)
					}
				} else {
					e.Complete(tr.ID, m(tr.Algo, tr.Config))
				}
			}
		}(w % e.n)
	}
	wg.Wait()
	e.Flush()
}
