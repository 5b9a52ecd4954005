package ctxtune

import (
	"errors"
	"hash/fnv"
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

// extIDBase is where contextual trial IDs start: a replica's trial ID
// plus extIDBase is the ID its lease carries (and a route entry leads
// back to it); IDs below it pass through to the global engine untouched.
// The global engine and its replicas draw from one trial-ID counter
// (core.NewContextualTuner), which a resume restarts above every
// journaled ID, so an ID never names two trials, not even across a
// restart. 2^32 keeps the IDs at ten JSON digits — every trial's ID
// crosses the wire three times (lease, completion, ack), so digit count
// is throughput. The counter would need 4.3 billion leases to reach the
// stripe, and even then a colliding completion degrades to
// ErrUnknownTrial — the route table, not the ID range, is what actually
// resolves a trial.
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
	// Dir is the checkpoint directory of the whole engine: one journal,
	// the global engine's, holds every trial of every context, each
	// replica's birth and every split, and its snapshots carry the
	// partitioner and every replica's state. Empty = in-memory only.
	Dir string
	// Every is the snapshot interval, in records of that journal (with
	// Dir).
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
	eng    *core.Tuner
	feats  Features
	expiry time.Time
}

// replica is one per-context engine.
type replica struct {
	id  string
	eng *core.Tuner
}

// Engine is the contextual tuning engine: a global core.Tuner
// for feature-less traffic plus one lazily created replica per
// partitioner context (core.NewContextualTuner), whose successful trials
// the global selector also learns from. It implements the tuned.Engine
// surface, so the wire server can serve it directly; LeaseNFor is the
// contextual entry point.
type Engine struct {
	cfg    Config
	part   Partitioner
	global *core.Tuner

	mu     sync.Mutex
	routes map[uint64]route
	// feats holds each context's latest lease's feature vector, shared
	// by the routes of every lease carrying an equal vector, so a
	// client's sticky vector is copied once, not per lease. The vectors
	// are never mutated.
	feats map[string]Features
	now   func() time.Time

	// reps lists the replicas the global engine built, in birth order,
	// as an immutable slice (replicas are never removed) that the
	// global engine's ContextHook.Born replaces under its mutex, so the
	// read-side aggregates — Iterations above all, which the server
	// consults on every lease for its trial target — take no lock.
	reps atomic.Pointer[[]replica]

	// journaled counts the partitioner's splits already in the log. Only
	// the contextHook reads and writes it, under the engine mutex.
	journaled int

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
	batch     []core.TrialResult
	group     []int
}

// ctxItem is one contextual entry of a batch: its index in the batch,
// its route, and its replica (nil once its group is handled).
type ctxItem struct {
	idx int
	rt  route
	rep *core.Tuner
}

// New builds a contextual engine. When cfg.Dir holds the state of a
// previous incarnation, the engine resumes from it: the global engine
// restores its newest snapshot — partitioner and every replica included
// — and replays the journal after it, so a restarted server rediscovers
// every context it had learned with what each had learned. A directory
// in the earlier contextual layout is refused with
// checkpoint.ErrContextLayout and left as it is.
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
		cfg:    cfg,
		part:   cfg.Partitioner,
		routes: make(map[uint64]route),
		feats:  make(map[string]Features),
		now:    time.Now,
	}
	if e.part == nil {
		e.part = NewTree(0, 0, 0)
	}
	opts := cfg.Opts
	if cfg.Dir != "" {
		opts = append(opts[:len(opts):len(opts)], core.WithCheckpoint(cfg.Dir, cfg.Every))
	}
	var err error
	e.global, err = core.NewContextualTuner(cfg.Algos, cfg.Selector(), cfg.Factory, cfg.Seed, (*contextHook)(e), opts...)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// Close does nothing: the engine's only file is its global engine's
// journal segment, which Checkpoint closes. It stays because the
// benchmark module (bench/) closes the engines it builds.
func (e *Engine) Close() error { return nil }

// contextHook is the Engine as its global engine's core.ContextHook.
type contextHook Engine

// Replica implements core.ContextHook: a replica's seed folds its
// context ID into the engine seed, so two contexts never share an RNG
// stream.
func (h *contextHook) Replica(ctx string) (nominal.Selector, int64) {
	f := fnv.New64a()
	f.Write([]byte(ctx))
	return h.cfg.Selector(), h.cfg.Seed ^ int64(f.Sum64())
}

// WarmStart implements core.ContextHook: a new context begins with
// everything global traffic has learned. The global fold's values may
// live on another cost scale, so they are imported softened to a weak
// prior (see warmStartKeep). Best effort — a selector that cannot
// round-trip its state just starts cold.
func (h *contextHook) WarmStart(replica, global nominal.Selector) {
	g, ok1 := global.(nominal.Stateful)
	r, ok2 := replica.(nominal.Stateful)
	if !ok1 || !ok2 {
		return
	}
	if state, err := g.Export(); err == nil && r.Restore(state) == nil {
		if d, ok := replica.(nominal.Decayable); ok {
			d.Decay(warmStartKeep)
		}
	}
}

// Born implements core.ContextHook: the new replica joins the lock-free
// list the aggregates read.
func (h *contextHook) Born(ctx string, eng *core.Tuner) {
	var reps []replica
	if p := h.reps.Load(); p != nil {
		reps = *p
	}
	reps = append(reps[:len(reps):len(reps)], replica{ctx, eng})
	h.reps.Store(&reps)
}

// Splits implements core.ContextHook.
func (h *contextHook) Splits() []checkpoint.Record {
	all := h.part.Splits()
	var recs []checkpoint.Record
	for _, s := range all[min(h.journaled, len(all)):] {
		recs = append(recs, checkpoint.Record{Ctx: s.Node, Split: []checkpoint.F{checkpoint.F(s.Dim), checkpoint.F(s.Bin)}})
	}
	h.journaled = len(all)
	return recs
}

// ExportPartition implements core.ContextHook.
func (h *contextHook) ExportPartition() ([]byte, error) { return h.part.Export() }

// RestorePartition implements core.ContextHook.
func (h *contextHook) RestorePartition(data []byte) error {
	if err := h.part.Restore(data); err != nil {
		return err
	}
	h.journaled = len(h.part.Splits())
	return nil
}

// ReplaySplit implements core.ContextHook. A split is authoritative on
// replay: the partitioner does not re-derive it from observations.
func (h *contextHook) ReplaySplit(rec checkpoint.Record) {
	if len(rec.Split) != 2 {
		return
	}
	h.part.Replay([]Split{{Node: rec.Ctx, Dim: int(rec.Split[0]), Bin: int(rec.Split[1])}})
	h.journaled = len(h.part.Splits())
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
	// The global engine builds the context's replica on first use; it
	// journals the birth after the splits made before it, so no trial
	// leased in a split's child is acknowledged before the split is
	// durable.
	eng, err := e.global.Replica(id)
	if err != nil {
		return nil, err
	}
	trials, err := eng.LeaseN(n)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	feats := e.feats[id]
	if !slices.Equal(feats, f) {
		feats = append(Features(nil), f...)
		e.feats[id] = feats
	}
	for i := range trials {
		trials[i].ID += extIDBase
		e.routes[trials[i].ID] = route{eng: eng, feats: feats, expiry: trials[i].Deadline}
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

// routeBatch resolves a batch's IDs in one pass under the routing
// mutex: it appends the index of every global ID to globalIdx and every
// contextual entry, with its route and replica, to items. take removes
// the routes it resolves; an unresolved contextual ID gets
// ErrUnknownTrial in errs when errs is non-nil.
func routeBatch[T any](e *Engine, batch []T, idOf func(T) uint64, take bool, errs []error, items []ctxItem, globalIdx []int) ([]ctxItem, []int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, x := range batch {
		id := idOf(x)
		if id < extIDBase {
			globalIdx = append(globalIdx, i)
			continue
		}
		rt, ok := e.routes[id]
		if !ok {
			if errs != nil {
				errs[i] = core.ErrUnknownTrial
			}
			continue
		}
		if take {
			delete(e.routes, id)
		}
		items = append(items, ctxItem{i, rt, rt.eng})
	}
	return items, globalIdx
}

// nextGroup returns the replica of the first item from g on that no
// group has taken yet, and the indices of all its items from there,
// marking them taken; nil when every item is taken. A batch is one call
// per replica: a worker's batch is nearly always single-context, and at
// wire batch sizes this scan is cheaper than building a map.
func nextGroup(items []ctxItem, g *int, group []int) (*core.Tuner, []int) {
	for ; *g < len(items); *g++ {
		rep := items[*g].rep
		if rep == nil {
			continue
		}
		for j := *g; j < len(items); j++ {
			if items[j].rep == rep {
				items[j].rep = nil
				group = append(group, j)
			}
		}
		return rep, group
	}
	return nil, group
}

// CompleteN finishes a batch of trials, global and contextual mixed:
// one call per replica, each durable in one journal sync. A successful
// contextual completion also feeds the partitioner (features, cost) for
// split refinement; a split it causes is journaled before CompleteN
// returns.
func (e *Engine) CompleteN(results []core.TrialResult) []error {
	errs := make([]error, len(results))
	e.mu.Lock()
	sc := e.scratch
	e.scratch = nil
	e.mu.Unlock()
	if sc == nil {
		sc = new(completeScratch)
	}
	items, globalIdx := routeBatch(e, results, func(r core.TrialResult) uint64 { return r.ID }, true, errs, sc.items[:0], sc.globalIdx[:0])
	batch, group, split := sc.batch, sc.group, false
	for g := 0; ; {
		var rep *core.Tuner
		if rep, group = nextGroup(items, &g, group[:0]); rep == nil {
			break
		}
		batch = batch[:0]
		for _, j := range group {
			batch = append(batch, core.TrialResult{ID: results[items[j].idx].ID - extIDBase, Value: results[items[j].idx].Value})
		}
		for k, err := range rep.CompleteN(batch) {
			it := items[group[k]]
			if errs[it.idx] = err; err == nil && e.part.Observe(it.rt.feats, results[it.idx].Value) {
				split = true
			}
		}
	}
	if split {
		e.global.JournalSplits()
	}
	globalRes := sc.globalRes[:0]
	for _, i := range globalIdx {
		globalRes = append(globalRes, results[i])
	}
	if len(globalRes) > 0 {
		for j, err := range e.global.CompleteN(globalRes) {
			errs[globalIdx[j]] = err
		}
	}
	clear(items) // drop the routes' feature vectors and replica pointers
	*sc = completeScratch{globalIdx, globalRes, items, batch, group}
	e.mu.Lock()
	e.scratch = sc
	e.mu.Unlock()
	return errs
}

// FailN fails a batch of trials, global and contextual mixed, with one
// call per replica as CompleteN makes, so a durable batch of one
// context's failures costs one journal sync. Failures do not reach the
// partitioner (a penalty value says nothing about the input's cost
// regime) or the global selector. A released entry (TrialFailure.
// Released) takes the same route to the engine that leased it, which
// takes the lease back.
func (e *Engine) FailN(fails []core.TrialFailure) []error {
	errs := make([]error, len(fails))
	items, globalIdx := routeBatch(e, fails, func(f core.TrialFailure) uint64 { return f.ID }, true, errs, nil, nil)
	var batch []core.TrialFailure
	var group []int
	for g := 0; ; {
		var rep *core.Tuner
		if rep, group = nextGroup(items, &g, group[:0]); rep == nil {
			break
		}
		batch = batch[:0]
		for _, j := range group {
			f := fails[items[j].idx]
			f.ID -= extIDBase
			batch = append(batch, f)
		}
		for k, err := range rep.FailN(batch) {
			errs[items[group[k]].idx] = err
		}
	}
	if len(globalIdx) > 0 {
		globalFails := make([]core.TrialFailure, len(globalIdx))
		for j, i := range globalIdx {
			globalFails[j] = fails[i]
		}
		for j, err := range e.global.FailN(globalFails) {
			errs[globalIdx[j]] = err
		}
	}
	return errs
}

// liveness answers Heartbeat/Alive for a mixed ID batch with one probe
// per replica, and drops the routes of contextual trials found dead.
func (e *Engine) liveness(ids []uint64, probe func(r *core.Tuner, local []uint64) []bool, global func([]uint64) []bool) []bool {
	out := make([]bool, len(ids))
	items, globalIdx := routeBatch(e, ids, func(id uint64) uint64 { return id }, false, nil, nil, nil)
	var local []uint64
	var group []int
	for g := 0; ; {
		var rep *core.Tuner
		if rep, group = nextGroup(items, &g, group[:0]); rep == nil {
			break
		}
		local = local[:0]
		for _, j := range group {
			local = append(local, ids[items[j].idx]-extIDBase)
		}
		for k, alive := range probe(rep, local) {
			i := items[group[k]].idx
			out[i] = alive
			if !alive {
				e.takeRoute(ids[i])
			}
		}
	}
	if len(globalIdx) > 0 {
		globalIDs := make([]uint64, len(globalIdx))
		for j, i := range globalIdx {
			globalIDs[j] = ids[i]
		}
		for j, alive := range global(globalIDs) {
			out[globalIdx[j]] = alive
		}
	}
	return out
}

// Heartbeat extends leases and reports liveness for a mixed ID batch.
func (e *Engine) Heartbeat(ids []uint64) []bool {
	return e.liveness(ids,
		(*core.Tuner).Heartbeat,
		e.global.Heartbeat)
}

// Alive reports liveness for a mixed ID batch without extending leases.
func (e *Engine) Alive(ids []uint64) []bool {
	return e.liveness(ids,
		(*core.Tuner).Alive,
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

// Checkpoint snapshots the whole engine — global engine, partitioner
// and every replica — into the journal and closes its segment, so an
// engine left idle after a checkpoint, a spilled tenant's above all,
// holds no file open. With no Dir it does nothing.
func (e *Engine) Checkpoint() error { return e.global.Checkpoint() }

// snapshotReplicas returns a stable view of the replica set without
// touching the routing mutex (see the reps field).
func (e *Engine) snapshotReplicas() []replica {
	if p := e.reps.Load(); p != nil {
		return *p
	}
	return nil
}

// Best returns the best observation across the global engine and every
// replica.
func (e *Engine) Best() (int, param.Config, float64) {
	algo, cfg, val := e.global.Best()
	for _, r := range e.snapshotReplicas() {
		if a, c, v := r.eng.Best(); a >= 0 && v < val {
			algo, cfg, val = a, c, v
		}
	}
	return algo, cfg, val
}

// Iterations returns completed trials summed across all engines.
func (e *Engine) Iterations() int {
	n := e.global.Iterations()
	for _, r := range e.snapshotReplicas() {
		n += r.eng.Iterations()
	}
	return n
}

// Counts returns per-algorithm completion counts summed across all
// engines.
func (e *Engine) Counts() []int {
	counts := e.global.Counts()
	for _, r := range e.snapshotReplicas() {
		for i, n := range r.eng.Counts() {
			counts[i] += n
		}
	}
	return counts
}

// Stats returns engine event counters summed across all engines.
// Absorbed counts the global engine's Absorb calls alone.
func (e *Engine) Stats() core.EngineStats {
	st := e.global.Stats()
	for _, r := range e.snapshotReplicas() {
		rs := r.eng.Stats()
		st.Leased += rs.Leased
		st.Completed += rs.Completed
		st.Failed += rs.Failed
		st.Expired += rs.Expired
		st.Released += rs.Released
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
func (e *Engine) ContextCount() int { return len(e.snapshotReplicas()) }

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
	for _, r := range e.snapshotReplicas() {
		if r.id == id {
			return r.eng.Best()
		}
	}
	return e.global.Best()
}
