package ctxtune

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/nominal"
	"repro/internal/param"
	"repro/internal/search"
)

// extIDBase is where contextual trial IDs start: IDs at or above it were
// leased from a per-context replica (and carry a route entry back to
// it); IDs below it pass through to the global engine untouched. 2^32
// keeps the IDs at ten JSON digits — every trial's ID crosses the wire
// three times (lease, completion, ack), so digit count is throughput. The
// global counter would need 4.3 billion completions to reach the stripe,
// and even then a colliding completion degrades to ErrUnknownTrial — the
// route table, not the ID range, is what actually resolves a trial.
const extIDBase uint64 = 1 << 32

// warmStartKeep is the Decay fraction applied to a selector state
// imported from the global fold. Cross-context costs can live on
// different scales, and a min-exploiting selector would enthrone an
// imported record forever; decaying the import turns it into a weak
// prior — thinly-evidenced arms return to unvisited and are re-probed
// at the context's own scale. (Contexts whose winner may disagree with
// the global fold should additionally use a windowed or decaying
// selector, e.g. EpsilonGreedy.RecencyWindow — the same advice the
// drift watchdog gives, because an imported fold that mismatches local
// costs is exactly a drifted record.)
const warmStartKeep = 0.5

// Config assembles a contextual Engine. Algos, Selector and Seed are
// required; everything else has a working zero value.
type Config struct {
	// Algos is the algorithm roster, shared by the global engine and
	// every context replica.
	Algos []core.Algorithm
	// Selector builds one phase-two selector instance per engine (global
	// and each replica). All instances must be the same type: replicas
	// warm-start by restoring the global selector's exported state.
	Selector func() nominal.Selector
	// Factory is the phase-one search strategy factory (nil = default).
	Factory search.Factory
	// Seed derives every engine's seed; replicas fold their context ID
	// in, so two contexts never share an RNG stream.
	Seed int64
	// Partitioner maps features to contexts (nil = NewTree defaults).
	Partitioner Partitioner
	// Dir is the persistence root: the global engine checkpoints under
	// Dir/global, the partitioner journals splits to Dir/splits.jsonl,
	// and Checkpoint snapshots partitioner + per-context selector state
	// to Dir/contexts.json. Empty = in-memory only.
	Dir string
	// Every is the global engine's snapshot interval (with Dir).
	Every int
	// Opts are engine/tuner options applied to the global engine and to
	// every replica (lease timeout, max in-flight, drift watchdog, ...).
	// New adds core.WithoutHistory to them. Do not pass
	// core.WithCheckpoint here — Dir owns persistence.
	Opts []core.Option
}

// route records where a contextual trial ID came from, so completions
// and heartbeats find their replica and the feature vector reaches the
// partitioner when the measurement lands.
type route struct {
	ctx    string
	local  uint64
	algo   int
	feats  Features
	expiry time.Time
}

// replica is one per-context engine.
type replica struct {
	id  string
	eng *core.ConcurrentTuner

	// feats is the feature vector of the replica's latest lease, shared
	// by the routes of every lease carrying an equal vector, so a
	// client's sticky vector is copied once, not per lease. Never
	// mutated; guarded by Engine.mu.
	feats Features
}

// Engine is the contextual tuning engine: a global core.ConcurrentTuner
// for feature-less traffic plus one lazily created replica per
// partitioner context, with all replica completions folded back into the
// global selector via Absorb. It implements the tuned.Engine surface, so
// the wire server can serve it directly; LeaseNFor is the contextual
// entry point.
type Engine struct {
	cfg    Config
	part   Partitioner
	global *core.ConcurrentTuner

	mu       sync.Mutex
	replicas map[string]*replica
	routes   map[uint64]route
	nextExt  uint64
	journal  *splitJournal // nil without Dir
	now      func() time.Time

	// reps mirrors the replicas map as an immutable slice (replicas are
	// never removed), so the read-side aggregates — Iterations above
	// all, which the server consults on every lease for its trial
	// target — never contend with the routing mutex.
	reps atomic.Pointer[[]*replica]

	// Fold-back accounting: contextual completions absorbed into the
	// global selector count as global iterations, but they are copies of
	// measurements the replicas already counted — aggregates subtract
	// them so one measurement is one iteration. nFolds is atomic for the
	// same lock-free Iterations; the per-algorithm counts stay behind mu
	// (Counts is not on the hot path).
	nFolds atomic.Int64
	folds  []int // per algorithm

	// scratch is CompleteN's working set, taken under mu for the length
	// of one call and put back at its end; a concurrent call finding it
	// taken builds its own.
	scratch *completeScratch
}

// completeScratch is the reusable working set of one CompleteN call.
type completeScratch struct {
	globalIdx []int
	globalRes []core.TrialResult
	items     []ctxItem
	obs       []nominal.Observation
	batch     []core.TrialResult
	group     []int
}

// ctxItem is one contextual result of a CompleteN batch: its index in
// the batch, its route, and its replica (nil once completed).
type ctxItem struct {
	idx int
	rt  route
	rep *replica
}

// engineState is the contexts.json payload: the partitioner snapshot and
// every replica's selector state.
type engineState struct {
	Partitioner json.RawMessage   `json:"partitioner,omitempty"`
	Contexts    map[string][]byte `json:"contexts,omitempty"`
}

const contextsFileName = "contexts.json"

// HasCheckpoint reports whether dir holds a contextual engine's state
// for New to resume: its global engine's checkpoint in dir/global.
func HasCheckpoint(dir string) bool {
	return dir != "" && core.HasCheckpoint(filepath.Join(dir, "global"))
}

// New builds a contextual engine. When cfg.Dir holds state from a
// previous incarnation (a global checkpoint, a contexts snapshot, a
// split journal), the engine resumes from it: the global engine replays
// its journal, the partitioner restores its snapshot and replays the
// split journal on top, and every snapshotted context replica is
// re-created with its saved selector state — a restarted server
// rediscovers every context it had learned.
func New(cfg Config) (*Engine, error) {
	if len(cfg.Algos) == 0 {
		return nil, errors.New("ctxtune: no algorithms")
	}
	if cfg.Selector == nil {
		return nil, errors.New("ctxtune: nil selector factory")
	}
	if cfg.Every <= 0 {
		cfg.Every = 100
	}
	// Every engine, global and per context, keeps no per-trial log, so
	// a long-running contextual server stays at constant memory.
	cfg.Opts = append(append([]core.Option(nil), cfg.Opts...), core.WithoutHistory())
	e := &Engine{
		cfg:      cfg,
		part:     cfg.Partitioner,
		replicas: make(map[string]*replica),
		routes:   make(map[uint64]route),
		now:      time.Now,
		folds:    make([]int, len(cfg.Algos)),
	}
	if e.part == nil {
		e.part = NewTree(0, 0, 0)
	}

	opts := cfg.Opts
	if cfg.Dir != "" {
		opts = append(append([]core.Option(nil), cfg.Opts...), core.WithCheckpoint(filepath.Join(cfg.Dir, "global"), cfg.Every))
	}
	var err error
	e.global, err = core.NewConcurrentTuner(cfg.Algos, cfg.Selector(), cfg.Factory, cfg.Seed, opts...)
	if err != nil {
		return nil, err
	}
	if cfg.Dir == "" {
		return e, nil
	}
	if err := e.restoreContexts(); err != nil {
		return nil, err
	}
	// Journal splits learned before the partitioner's last snapshot are
	// already in the tree; Replay is idempotent, so applying the full
	// journal closes the gap between snapshot and crash.
	if r, ok := e.part.(interface{ Replay([]Split) }); ok {
		r.Replay(readSplits(cfg.Dir))
	}
	e.journal = &splitJournal{dir: cfg.Dir}
	// The Tree journals a new split under its own lock, before the split
	// becomes visible to Context, so a journaled split is never skipped.
	if t, ok := e.part.(*Tree); ok {
		t.onSplit = func(s Split) { e.journal.append(s) }
	}
	return e, nil
}

// restoreContexts loads Dir/contexts.json, restoring the partitioner and
// re-creating every snapshotted replica. A missing file is a fresh
// start; a corrupt one fails the resume loudly.
func (e *Engine) restoreContexts() error {
	buf, err := os.ReadFile(filepath.Join(e.cfg.Dir, contextsFileName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("ctxtune: %w", err)
	}
	var st engineState
	if err := json.Unmarshal(buf, &st); err != nil {
		return fmt.Errorf("ctxtune: contexts snapshot: %w", err)
	}
	if len(st.Partitioner) > 0 {
		if err := e.part.Restore(st.Partitioner); err != nil {
			return err
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for id, sel := range st.Contexts {
		if _, err := e.replicaForLocked(id, sel); err != nil {
			return err
		}
	}
	return nil
}

// Close releases the split journal (the engines need no closing). A
// split after Close reopens it.
func (e *Engine) Close() error {
	if e.journal == nil {
		return nil
	}
	return e.journal.close()
}

// seedFor derives a replica's seed from the engine seed and its context
// ID, the same way core.Contextual derived per-context tuner seeds.
func (e *Engine) seedFor(id string) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return e.cfg.Seed ^ int64(h.Sum64())
}

// replicaForLocked returns (creating and warm-starting on demand) the
// replica for a context. A cold replica's selector starts from saved,
// the snapshotted state of a previous incarnation, when there is one,
// else from the global selector's current fold — a new context begins
// with everything global traffic has learned.
func (e *Engine) replicaForLocked(id string, saved []byte) (*replica, error) {
	if r, ok := e.replicas[id]; ok {
		return r, nil
	}
	eng, err := core.NewConcurrentTuner(e.cfg.Algos, e.cfg.Selector(), e.cfg.Factory, e.seedFor(id), e.cfg.Opts...)
	if err != nil {
		return nil, fmt.Errorf("ctxtune: context %s: %w", id, err)
	}
	if saved != nil {
		// A snapshot of this very context: honest values, restore as-is.
		if err := eng.RestoreSelectorState(saved); err != nil {
			return nil, fmt.Errorf("ctxtune: context %s selector: %w", id, err)
		}
	} else if state, err := e.global.ExportSelectorState(); err == nil {
		// The global fold's values may live on another cost scale:
		// import them softened to a weak prior (see warmStartKeep).
		// Best effort — a selector that cannot round-trip its state
		// just starts cold.
		if eng.RestoreSelectorState(state) == nil {
			eng.DecaySelector(warmStartKeep)
		}
	}
	r := &replica{id: id, eng: eng}
	e.replicas[id] = r
	reps := make([]*replica, 0, len(e.replicas))
	for _, rr := range e.replicas {
		reps = append(reps, rr)
	}
	e.reps.Store(&reps)
	return r, nil
}

// LeaseNFor leases up to n trials for a feature vector: feature-less
// requests go to the global engine; everything else routes through the
// partitioner to its context replica, and the returned trial IDs are
// re-stamped into the contextual ID range so completions find their way
// back.
func (e *Engine) LeaseNFor(f Features, n int) ([]core.Trial, error) {
	if len(f) == 0 {
		return e.global.LeaseN(n)
	}
	id := e.part.Context(f)
	if id == GlobalContext {
		return e.global.LeaseN(n)
	}
	e.mu.Lock()
	r, err := e.replicaForLocked(id, nil)
	e.mu.Unlock()
	if err != nil {
		return nil, err
	}
	trials, err := r.eng.LeaseN(n)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	feats := r.feats
	if !slices.Equal(feats, f) {
		feats = append(Features(nil), f...)
		r.feats = feats
	}
	for i := range trials {
		e.nextExt++
		ext := extIDBase + e.nextExt
		e.routes[ext] = route{ctx: id, local: trials[i].ID, algo: trials[i].Algo, feats: feats, expiry: trials[i].Deadline}
		trials[i].ID = ext
	}
	return trials, nil
}

// LeaseN implements the feature-less leg of the engine surface.
func (e *Engine) LeaseN(n int) ([]core.Trial, error) { return e.global.LeaseN(n) }

// takeRoute removes and returns the route of a contextual trial ID.
func (e *Engine) takeRoute(id uint64) (route, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	rt, ok := e.routes[id]
	if ok {
		delete(e.routes, id)
	}
	return rt, ok
}

func (e *Engine) replicaOf(ctx string) *replica {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.replicas[ctx]
}

// CompleteN finishes a batch of trials, global and contextual mixed. A
// successful contextual completion additionally feeds the partitioner
// (features, cost) for split refinement and folds the observation into
// the global selector, so global knowledge keeps improving even when all
// traffic carries features.
func (e *Engine) CompleteN(results []core.TrialResult) []error {
	errs := make([]error, len(results))
	e.mu.Lock()
	sc := e.scratch
	e.scratch = nil
	if sc == nil {
		sc = new(completeScratch)
	}
	globalIdx, globalRes, items := sc.globalIdx[:0], sc.globalRes[:0], sc.items[:0]
	for i, res := range results {
		if res.ID < extIDBase {
			globalIdx = append(globalIdx, i)
			globalRes = append(globalRes, res)
			continue
		}
		rt, ok := e.routes[res.ID]
		if !ok {
			errs[i] = core.ErrUnknownTrial
			continue
		}
		delete(e.routes, res.ID)
		r := e.replicas[rt.ctx]
		if r == nil {
			errs[i] = core.ErrUnknownTrial
			continue
		}
		items = append(items, ctxItem{i, rt, r})
	}
	e.mu.Unlock()
	// One replica CompleteN per context and one global Absorb per call:
	// the wire path hands us whole batches, and per-result round trips
	// through three mutexes were the routing layer's dominant cost. The
	// grouping scans instead of building a map — a worker's batch is
	// nearly always single-context, and at wire batch sizes the scan is
	// cheaper than map churn.
	obs, batch, group := sc.obs[:0], sc.batch, sc.group
	for g := range items {
		rep := items[g].rep
		if rep == nil {
			continue // completed with an earlier group
		}
		batch, group = batch[:0], group[:0]
		for j := g; j < len(items); j++ {
			if items[j].rep == rep {
				items[j].rep = nil
				group = append(group, j)
				batch = append(batch, core.TrialResult{ID: items[j].rt.local, Value: results[items[j].idx].Value})
			}
		}
		for k, err := range rep.eng.CompleteN(batch) {
			it := items[group[k]]
			errs[it.idx] = err
			if err != nil {
				continue
			}
			v := results[it.idx].Value
			e.part.Observe(it.rt.feats, v)
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				obs = append(obs, nominal.Observation{Arm: it.rt.algo, Value: v})
			}
		}
	}
	// Absorb only skips out-of-range arms and non-finite values; arms
	// come from our own routes and values are filtered above, so the
	// applied count equals len(obs) and per-arm fold counters stay exact.
	folded := 0
	if len(obs) > 0 {
		folded = e.global.Absorb(obs)
		e.nFolds.Add(int64(folded))
	}
	if len(globalRes) > 0 {
		for j, err := range e.global.CompleteN(globalRes) {
			errs[globalIdx[j]] = err
		}
	}
	clear(items) // drop the routes' feature vectors and replica pointers
	*sc = completeScratch{globalIdx, globalRes, items, obs, batch, group}
	e.mu.Lock()
	if folded > 0 && folded == len(obs) {
		for _, o := range obs {
			if o.Arm < len(e.folds) {
				e.folds[o.Arm]++
			}
		}
	}
	e.scratch = sc
	e.mu.Unlock()
	return errs
}

// FailN fails a batch of trials, global and contextual mixed. Failures
// do not reach the partitioner (a penalty value says nothing about the
// input's cost regime) or the global fold.
func (e *Engine) FailN(fails []core.TrialFailure) []error {
	errs := make([]error, len(fails))
	var globalIdx []int
	var globalFails []core.TrialFailure
	for i, f := range fails {
		if f.ID < extIDBase {
			globalIdx = append(globalIdx, i)
			globalFails = append(globalFails, f)
			continue
		}
		rt, ok := e.takeRoute(f.ID)
		if !ok {
			errs[i] = core.ErrUnknownTrial
			continue
		}
		r := e.replicaOf(rt.ctx)
		if r == nil {
			errs[i] = core.ErrUnknownTrial
			continue
		}
		errs[i] = r.eng.FailN([]core.TrialFailure{{ID: rt.local, Failure: f.Failure}})[0]
	}
	if len(globalFails) > 0 {
		for j, err := range e.global.FailN(globalFails) {
			errs[globalIdx[j]] = err
		}
	}
	return errs
}

// liveness answers Heartbeat/Alive for a mixed ID batch.
func (e *Engine) liveness(ids []uint64, probe func(r *replica, local []uint64) []bool, global func([]uint64) []bool) []bool {
	out := make([]bool, len(ids))
	var globalIdx []int
	var globalIDs []uint64
	byCtx := make(map[string][]int)
	e.mu.Lock()
	for i, id := range ids {
		if id < extIDBase {
			globalIdx = append(globalIdx, i)
			globalIDs = append(globalIDs, id)
			continue
		}
		if _, ok := e.routes[id]; ok {
			byCtx[e.routes[id].ctx] = append(byCtx[e.routes[id].ctx], i)
		}
	}
	e.mu.Unlock()
	for ctx, idxs := range byCtx {
		r := e.replicaOf(ctx)
		if r == nil {
			continue
		}
		local := make([]uint64, len(idxs))
		e.mu.Lock()
		for j, i := range idxs {
			local[j] = e.routes[ids[i]].local
		}
		e.mu.Unlock()
		for j, alive := range probe(r, local) {
			out[idxs[j]] = alive
			if !alive {
				e.takeRoute(ids[idxs[j]])
			}
		}
	}
	if len(globalIDs) > 0 {
		for j, alive := range global(globalIDs) {
			out[globalIdx[j]] = alive
		}
	}
	return out
}

// Heartbeat extends leases and reports liveness for a mixed ID batch.
func (e *Engine) Heartbeat(ids []uint64) []bool {
	return e.liveness(ids,
		func(r *replica, local []uint64) []bool { return r.eng.Heartbeat(local) },
		e.global.Heartbeat)
}

// Alive reports liveness for a mixed ID batch without extending leases.
func (e *Engine) Alive(ids []uint64) []bool {
	return e.liveness(ids,
		func(r *replica, local []uint64) []bool { return r.eng.Alive(local) },
		e.global.Alive)
}

// Absorb folds external observations into the global engine.
func (e *Engine) Absorb(obs []nominal.Observation) int { return e.global.Absorb(obs) }

// ReclaimExpired sweeps expired leases across the global engine and
// every replica, and drops routes whose trial expired long enough ago
// that no late completion can still be applied.
func (e *Engine) ReclaimExpired() int {
	n := e.global.ReclaimExpired()
	for _, r := range e.snapshotReplicas() {
		n += r.eng.ReclaimExpired()
	}
	grace := e.global.LeaseTimeout()
	now := e.now()
	e.mu.Lock()
	for id, rt := range e.routes {
		if !rt.expiry.IsZero() && now.After(rt.expiry.Add(grace)) {
			delete(e.routes, id)
		}
	}
	e.mu.Unlock()
	return n
}

// Checkpoint snapshots the global engine, the partitioner, and every
// replica's selector state, then closes the split journal as the global
// engine closes its segment: an engine left idle after a checkpoint, a
// spilled tenant's above all, holds no file open. The next split
// reopens the journal. With no Dir only the global engine checkpoints.
func (e *Engine) Checkpoint() error {
	if err := e.global.Checkpoint(); err != nil || e.cfg.Dir == "" {
		return err
	}
	part, err := e.part.Export()
	if err != nil {
		return err
	}
	st := engineState{Partitioner: part, Contexts: make(map[string][]byte)}
	for _, r := range e.snapshotReplicas() {
		sel, err := r.eng.ExportSelectorState()
		if err != nil {
			continue
		}
		st.Contexts[r.id] = sel
	}
	buf, err := json.Marshal(st)
	if err != nil {
		return err
	}
	if err := checkpoint.WriteFileAtomic(filepath.Join(e.cfg.Dir, contextsFileName), buf, 0o644); err != nil {
		return err
	}
	return e.journal.close()
}

// snapshotReplicas returns a stable view of the replica set without
// touching the routing mutex (see the reps field).
func (e *Engine) snapshotReplicas() []*replica {
	if p := e.reps.Load(); p != nil {
		return *p
	}
	return nil
}

// Best returns the best observation across the global engine and every
// replica. A replica wins a tie with the global engine: the global
// engine holds each contextual completion as an Absorb copy, which
// carries the value but not the configuration the replica measured.
func (e *Engine) Best() (int, param.Config, float64) {
	algo, cfg, val := e.global.Best()
	for _, r := range e.snapshotReplicas() {
		if a, c, v := r.eng.Best(); a >= 0 && v <= val {
			algo, cfg, val = a, c, v
		}
	}
	return algo, cfg, val
}

// Iterations returns completed trials summed across all engines, each
// real measurement counted once: the fold-back copies in the global
// engine are subtracted back out.
func (e *Engine) Iterations() int {
	n := e.global.Iterations() - int(e.nFolds.Load())
	for _, r := range e.snapshotReplicas() {
		n += r.eng.Iterations()
	}
	return n
}

// Counts returns per-algorithm completion counts summed across all
// engines, net of fold-back copies (see Iterations).
func (e *Engine) Counts() []int {
	counts := e.global.Counts()
	if counts == nil {
		counts = make([]int, len(e.cfg.Algos))
	}
	e.mu.Lock()
	for i, n := range e.folds {
		if i < len(counts) {
			counts[i] -= n
		}
	}
	e.mu.Unlock()
	for _, r := range e.snapshotReplicas() {
		for i, n := range r.eng.Counts() {
			if i < len(counts) {
				counts[i] += n
			}
		}
	}
	return counts
}

// Stats returns engine event counters summed across all engines. The
// global Absorbed counter includes the per-context completions folded
// back in.
func (e *Engine) Stats() core.EngineStats {
	st := e.global.Stats()
	for _, r := range e.snapshotReplicas() {
		rs := r.eng.Stats()
		st.Leased += rs.Leased
		st.Completed += rs.Completed
		st.Failed += rs.Failed
		st.Expired += rs.Expired
		st.InFlight += rs.InFlight
	}
	return st
}

// FailureStats returns failure counters summed across all engines
// (rate/degradation fields come from the global engine).
func (e *Engine) FailureStats() core.FailureStats {
	fs := e.global.FailureStats()
	for _, r := range e.snapshotReplicas() {
		rf := r.eng.FailureStats()
		fs.Total += rf.Total
		fs.Panics += rf.Panics
		fs.Timeouts += rf.Timeouts
		fs.Invalids += rf.Invalids
		for i, n := range rf.PerAlgo {
			if i < len(fs.PerAlgo) {
				fs.PerAlgo[i] += n
			}
		}
	}
	return fs
}

// DriftStats reports the global engine's drift counters.
func (e *Engine) DriftStats() core.DriftStats { return e.global.DriftStats() }

// Degraded reports the global engine's degradation state.
func (e *Engine) Degraded() bool { return e.global.Degraded() }

// NumAlgorithms returns the roster size.
func (e *Engine) NumAlgorithms() int { return e.global.NumAlgorithms() }

// AlgorithmName returns the name of algorithm i.
func (e *Engine) AlgorithmName(i int) string { return e.global.AlgorithmName(i) }

// LeaseTimeout returns the lease TTL (shared by all engines).
func (e *Engine) LeaseTimeout() time.Duration { return e.global.LeaseTimeout() }

// ContextCount returns the number of live context replicas.
func (e *Engine) ContextCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.replicas)
}

// Contexts returns every context ID the partitioner has created.
func (e *Engine) Contexts() []string { return e.part.Contexts() }

// BestFor returns the best observation of the replica a feature vector
// routes to (falling back to the global engine for feature-less input or
// a context that has not leased yet).
func (e *Engine) BestFor(f Features) (int, param.Config, float64) {
	if len(f) == 0 {
		return e.global.Best()
	}
	id := e.part.Context(f)
	e.mu.Lock()
	r := e.replicas[id]
	e.mu.Unlock()
	if r == nil {
		return e.global.Best()
	}
	return r.eng.Best()
}
