package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"

	"repro/internal/checkpoint"
	"repro/internal/guard"
	"repro/internal/nominal"
	"repro/internal/param"
	"repro/internal/search"
	"repro/internal/xrand"
)

// WithCheckpoint enables crash-safe persistence: the tuner journals
// every completed iteration to dir and, every `every` completed
// iterations, a snapshot of its complete state — a line in the same
// journal, leaving in the same write and fsync as the operation's
// records. Starting and restarting are the same call: when dir already
// holds a checkpoint (HasCheckpoint), the constructor resumes from it,
// losing at most the crashed process's in-flight trials; otherwise it
// starts fresh and journals the initial snapshot. A single caller's
// resumed run makes the decisions of an uninterrupted one. An `every` of
// 0 disables periodic snapshots (the journal alone still makes every
// completed iteration recoverable from the initial snapshot, and the
// journal then stays in one segment, however long it grows).
//
// Checkpoint I/O failures after construction never interrupt tuning;
// they are recorded and exposed through CheckpointErr.
func WithCheckpoint(dir string, every int) Option {
	return func(c *Tuner) error {
		c.t.ckptDir = dir
		c.t.ckptEvery = every
		return nil
	}
}

// CheckpointErr returns the most recent checkpoint I/O error, or nil.
// A non-nil value means durability is degraded (tuning continues, but a
// crash may lose more than one iteration). The error is sticky: the
// next periodic snapshot after it starts a fresh journal segment, and
// only that segment's successful creation — written, fsynced and its
// directory fsynced — clears the error, because a new file is the only
// proof that the directory is writable again (journal appends keep
// "succeeding" against an unlinked file).
func (c *Tuner) CheckpointErr() error {
	c.mu.Lock()
	defer c.unlock()
	return c.t.ckptErr
}

// CheckpointDir returns the checkpoint directory ("" when disabled).
func (c *Tuner) CheckpointDir() string { return c.t.ckptDir }

// tunerState is the snapshot payload: everything needed to resume the
// tuner mid-search. Full iteration history and per-algorithm timelines
// are intentionally not persisted (only a bounded tail is) — they are
// diagnostics, not decision state, and would make snapshots O(run
// length).
//
// RestoreState decodes it with encoding/json, but ExportState encodes it
// by hand, field by field in this order; a field added here must be
// added there too. TestExportStateMatchesJSON pins the hand encoding to
// json.Marshal of this struct.
type tunerState struct {
	Algos    []string       `json:"algos"`
	RngSeed  int64          `json:"rng_seed"`
	RngDrawn uint64         `json:"rng_drawn"`
	Counts   []int          `json:"counts"`
	BestAlgo int            `json:"best_algo"`
	BestCfg  []checkpoint.F `json:"best_cfg,omitempty"`
	BestVal  checkpoint.F   `json:"best_val"`
	WorstVal checkpoint.F   `json:"worst_val"`

	Selector   json.RawMessage   `json:"selector"`
	Strategies []json.RawMessage `json:"strategies"`
	Guard      json.RawMessage   `json:"guard,omitempty"`

	FailTotal   int   `json:"fail_total"`
	FailPanics  int   `json:"fail_panics"`
	FailTimeout int   `json:"fail_timeout"`
	FailInvalid int   `json:"fail_invalid"`
	FailPerAlgo []int `json:"fail_per_algo"`

	LastValue  checkpoint.F `json:"last_value"`
	LastFailed bool         `json:"last_failed"`

	Recent      []bool `json:"recent,omitempty"`
	RecentIdx   int    `json:"recent_idx"`
	RecentFill  int    `json:"recent_fill"`
	RecentFails int    `json:"recent_fails"`
	Degraded    bool   `json:"degraded"`
	PinnedIters int    `json:"pinned_iters"`

	Held []int `json:"held,omitempty"`

	HistoryTail []recState `json:"history_tail,omitempty"`

	Drift *driftState `json:"drift,omitempty"`

	Contexts *contextsState `json:"contexts,omitempty"`
}

// contextsState is a contextual engine's part of its global tuner's
// snapshot: the partitioner, and every replica's own snapshot payload by
// context.
type contextsState struct {
	Partitioner json.RawMessage            `json:"partitioner"`
	Replicas    map[string]json.RawMessage `json:"replicas"`
}

// driftState is the drift watchdog's snapshot payload: the reset
// sequence number, the still-pending re-probe queue, and the counters.
// Detector internals (Page–Hinkley sums, ADWIN buckets) are advisory
// warm-up state and deliberately not persisted; a resumed watchdog
// starts its detectors cold and relies on journaled sentinels for any
// reset in the replayed tail.
type driftState struct {
	Seq             uint64 `json:"seq,omitempty"`
	ProbeQ          []int  `json:"probe_q,omitempty"`
	Cooldown        int    `json:"cooldown,omitempty"`
	Events          uint64 `json:"events,omitempty"`
	Decays          uint64 `json:"decays,omitempty"`
	Reforks         uint64 `json:"reforks,omitempty"`
	ProbesScheduled uint64 `json:"probes_scheduled,omitempty"`
	Outliers        uint64 `json:"outliers,omitempty"`
	Stale           uint64 `json:"stale,omitempty"`
}

type recState struct {
	Iteration int            `json:"iteration"`
	Algo      int            `json:"algo"`
	Config    []checkpoint.F `json:"config"`
	Value     checkpoint.F   `json:"value"`
	Failed    bool           `json:"failed"`
}

// stateHistoryTail bounds how many iteration records a snapshot keeps.
const stateHistoryTail = 64

// ExportState serializes the tuner's complete resumable state. The
// payload is the json.Marshal form of tunerState, byte for byte, but
// encoded by hand into a buffer the tuner reuses: the returned bytes
// are valid until the next ExportState call. The selector, strategy and
// guard states are their own Export payloads, appended as they are.
func (t *tuner) ExportState() ([]byte, error) {
	sel, ok := t.selector.(nominal.Stateful)
	if !ok {
		return nil, fmt.Errorf("core: selector %s is not checkpointable", t.selector.Name())
	}
	selRaw, err := sel.Export()
	if err != nil {
		return nil, fmt.Errorf("core: exporting selector: %w", err)
	}
	seed, drawn := t.src.State()
	b := append(t.stateBuf[:0], `{"algos":[`...)
	for i, a := range t.algos {
		if i > 0 {
			b = append(b, ',')
		}
		b = checkpoint.AppendString(b, a.Name)
	}
	b = append(b, `],"rng_seed":`...)
	b = strconv.AppendInt(b, seed, 10)
	b = append(b, `,"rng_drawn":`...)
	b = strconv.AppendUint(b, drawn, 10)
	b = append(b, `,"counts":`...)
	b = checkpoint.AppendInts(b, t.counts)
	b = append(b, `,"best_algo":`...)
	b = strconv.AppendInt(b, int64(t.bestAlgo), 10)
	if len(t.bestCfg) > 0 {
		b = append(b, `,"best_cfg":`...)
		b = checkpoint.AppendFloats(b, t.bestCfg)
	}
	b = append(b, `,"best_val":`...)
	b = checkpoint.AppendF(b, checkpoint.F(t.bestVal))
	b = append(b, `,"worst_val":`...)
	b = checkpoint.AppendF(b, checkpoint.F(t.worstVal))
	b = append(b, `,"selector":`...)
	b = append(b, selRaw...)
	b = append(b, `,"strategies":[`...)
	for i, s := range t.strategies {
		ss, ok := s.(search.Stateful)
		if !ok {
			return nil, fmt.Errorf("core: strategy %s is not checkpointable", s.Name())
		}
		raw, err := ss.Export()
		if err != nil {
			return nil, fmt.Errorf("core: exporting strategy for %q: %w", t.algos[i].Name, err)
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, raw...)
	}
	b = append(b, ']')
	if t.guard != nil {
		raw, err := t.guard.Export()
		if err != nil {
			return nil, fmt.Errorf("core: exporting guard: %w", err)
		}
		if len(raw) > 0 {
			b = append(b, `,"guard":`...)
			b = append(b, raw...)
		}
	}
	b = append(b, `,"fail_total":`...)
	b = strconv.AppendInt(b, int64(t.failTotal), 10)
	b = append(b, `,"fail_panics":`...)
	b = strconv.AppendInt(b, int64(t.failPanics), 10)
	b = append(b, `,"fail_timeout":`...)
	b = strconv.AppendInt(b, int64(t.failTimeout), 10)
	b = append(b, `,"fail_invalid":`...)
	b = strconv.AppendInt(b, int64(t.failInvalid), 10)
	b = append(b, `,"fail_per_algo":`...)
	b = checkpoint.AppendInts(b, t.failPerAlgo)
	b = append(b, `,"last_value":`...)
	b = checkpoint.AppendF(b, checkpoint.F(t.lastValue))
	b = append(b, `,"last_failed":`...)
	b = strconv.AppendBool(b, t.lastFailed)
	if len(t.recent) > 0 {
		b = append(b, `,"recent":[`...)
		for i, r := range t.recent {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendBool(b, r)
		}
		b = append(b, ']')
	}
	b = append(b, `,"recent_idx":`...)
	b = strconv.AppendInt(b, int64(t.recentIdx), 10)
	b = append(b, `,"recent_fill":`...)
	b = strconv.AppendInt(b, int64(t.recentFill), 10)
	b = append(b, `,"recent_fails":`...)
	b = strconv.AppendInt(b, int64(t.recentFails), 10)
	b = append(b, `,"degraded":`...)
	b = strconv.AppendBool(b, t.degraded)
	b = append(b, `,"pinned_iters":`...)
	b = strconv.AppendInt(b, int64(t.pinnedIters), 10)
	held := false
	for i, p := range t.proposers {
		if p.Holds() {
			if !held {
				b = append(b, `,"held":[`...)
			} else {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(i), 10)
			held = true
		}
	}
	if held {
		b = append(b, ']')
	}
	if tail := t.history[max(0, len(t.history)-stateHistoryTail):]; len(tail) > 0 {
		b = append(b, `,"history_tail":[`...)
		for i, r := range tail {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"iteration":`...)
			b = strconv.AppendInt(b, int64(r.Iteration), 10)
			b = append(b, `,"algo":`...)
			b = strconv.AppendInt(b, int64(r.Algo), 10)
			b = append(b, `,"config":`...)
			b = checkpoint.AppendFloats(b, r.Config)
			b = append(b, `,"value":`...)
			b = checkpoint.AppendF(b, checkpoint.F(r.Value))
			b = append(b, `,"failed":`...)
			b = strconv.AppendBool(b, r.Failed)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if t.driftSeq > 0 || t.drift != nil {
		ds := driftState{Seq: t.driftSeq}
		if d := t.drift; d != nil {
			ds.ProbeQ = d.probeQ
			ds.Cooldown = d.cooldown
			ds.Events = d.events
			ds.Decays = d.decays
			ds.Reforks = d.reforks
			ds.ProbesScheduled = d.probesScheduled
			ds.Outliers = d.outliers
			ds.Stale = d.staleDrops
		}
		raw, err := json.Marshal(ds)
		if err != nil {
			return nil, fmt.Errorf("core: exporting drift state: %w", err)
		}
		b = append(b, `,"drift":`...)
		b = append(b, raw...)
	}
	if t.ctxs != nil {
		if b, err = t.ctxs.appendState(b); err != nil {
			return nil, err
		}
	}
	b = append(b, '}')
	t.stateBuf = b
	return b, nil
}

// RestoreState overwrites a freshly constructed tuner's state with a
// snapshot payload. The tuner must have been built with the same
// algorithms, selector type, strategy factory and options as the one
// that wrote the snapshot.
func (t *tuner) RestoreState(payload []byte) error {
	var st tunerState
	if err := json.Unmarshal(payload, &st); err != nil {
		return fmt.Errorf("core: snapshot payload: %v", err)
	}
	if len(st.Algos) != len(t.algos) {
		return fmt.Errorf("core: snapshot has %d algorithms, tuner has %d", len(st.Algos), len(t.algos))
	}
	for i, name := range st.Algos {
		if name != t.algos[i].Name {
			return fmt.Errorf("core: snapshot algorithm %d is %q, tuner has %q", i, name, t.algos[i].Name)
		}
	}
	if len(st.Counts) != len(t.algos) || len(st.FailPerAlgo) != len(t.algos) || len(st.Strategies) != len(t.algos) {
		return fmt.Errorf("core: snapshot per-algorithm state does not match %d algorithms", len(t.algos))
	}
	if st.BestAlgo < -1 || st.BestAlgo >= len(t.algos) {
		return fmt.Errorf("core: snapshot best algorithm %d out of range", st.BestAlgo)
	}
	sel, ok := t.selector.(nominal.Stateful)
	if !ok {
		return fmt.Errorf("core: selector %s is not checkpointable", t.selector.Name())
	}
	if err := sel.Restore(st.Selector); err != nil {
		return fmt.Errorf("core: restoring selector: %w", err)
	}
	for i, s := range t.strategies {
		ss, ok := s.(search.Stateful)
		if !ok {
			return fmt.Errorf("core: strategy %s is not checkpointable", s.Name())
		}
		if err := ss.Restore(st.Strategies[i]); err != nil {
			return fmt.Errorf("core: restoring strategy for %q: %w", t.algos[i].Name, err)
		}
	}
	if t.guard != nil && st.Guard != nil {
		if err := t.guard.Restore(st.Guard); err != nil {
			return fmt.Errorf("core: restoring guard: %w", err)
		}
	}
	t.src = xrand.Restore(st.RngSeed, st.RngDrawn)
	t.rng = t.src.Rand()
	t.seed = st.RngSeed
	copy(t.counts, st.Counts)
	t.total = 0
	for _, n := range t.counts {
		t.total += n
	}
	t.bestGen++
	t.bestAlgo = st.BestAlgo
	t.bestCfg = param.Config(checkpoint.Unfloats(st.BestCfg))
	t.bestVal = float64(st.BestVal)
	t.worstVal = float64(st.WorstVal)
	t.failTotal = st.FailTotal
	t.failPanics = st.FailPanics
	t.failTimeout = st.FailTimeout
	t.failInvalid = st.FailInvalid
	copy(t.failPerAlgo, st.FailPerAlgo)
	t.lastValue = float64(st.LastValue)
	t.lastFailed = st.LastFailed
	// The watchdog ring is only restored when its geometry matches the
	// tuner's configuration; a changed window starts the watchdog fresh.
	if t.watchWindow > 0 && len(st.Recent) == t.watchWindow {
		t.recent = append([]bool(nil), st.Recent...)
		t.recentIdx = st.RecentIdx
		t.recentFill = st.RecentFill
		t.recentFails = st.RecentFails
		t.degraded = st.Degraded
	} else {
		t.recent = nil
		t.recentIdx, t.recentFill, t.recentFails = 0, 0, 0
		t.degraded = st.Degraded && st.RecentFill > 0
	}
	t.pinnedIters = st.PinnedIters
	t.held = make([]bool, len(t.algos))
	for _, a := range st.Held {
		if a < 0 || a >= len(t.algos) {
			return fmt.Errorf("core: snapshot holds a proposal of algorithm %d, out of range", a)
		}
		t.held[a] = true
	}
	if ds := st.Drift; ds != nil {
		t.driftSeq = ds.Seq
		if d := t.drift; d != nil {
			d.probeQ = append(d.probeQ[:0], ds.ProbeQ...)
			d.cooldown = ds.Cooldown
			d.events = ds.Events
			d.decays = ds.Decays
			d.reforks = ds.Reforks
			d.probesScheduled = ds.ProbesScheduled
			d.outliers = ds.Outliers
			d.staleDrops = ds.Stale
		}
	}
	if st.Contexts != nil {
		if t.ctxs == nil {
			return errors.New("core: snapshot holds context replicas; resume it as a contextual engine")
		}
		if err := t.ctxs.restore(t, st.Contexts); err != nil {
			return err
		}
	}
	if t.keepHistory {
		t.history = t.history[:0]
		for _, r := range st.HistoryTail {
			t.history = append(t.history, Record{
				Iteration: r.Iteration, Algo: r.Algo,
				Config: param.Config(checkpoint.Unfloats(r.Config)),
				Value:  float64(r.Value), Failed: r.Failed,
			})
		}
	}
	return nil
}

// snapshotNow journals a snapshot at the current iteration. It only
// appends a line to the journal's buffer — the operation's one write and
// fsync carry it — unless a new segment is due: the tuner has none yet
// (a fresh start or a resume), the current one is full, or a checkpoint
// error is pending.
func (t *tuner) snapshotNow() error {
	payload, err := t.ExportState()
	if err != nil {
		return err
	}
	iter := t.logIter
	if t.journal == nil || t.ckptErr != nil || t.journal.Full() {
		return t.rollSegment(iter, payload)
	}
	return t.journal.AppendSnapshot(iter, t.maxTrial, payload)
}

// rollSegment starts the next segment with a snapshot line. The
// outgoing segment is synced first, so the previous snapshot plus the
// records this operation journaled before the boundary stay a complete
// fallback should the new opening snapshot be lost. When the new segment
// cannot be created the tuner keeps journaling into the old one. Once it
// is created, the outgoing segment's errors no longer matter: the new
// snapshot holds everything it held.
func (t *tuner) rollSegment(iter int, payload []byte) error {
	t.journal.Sync()
	t.ckptSeq++
	j, err := checkpoint.Roll(t.ckptDir, t.ckptSeq, iter, t.maxTrial, payload)
	if err != nil {
		return err
	}
	t.journal.Close()
	t.journal = j
	return nil
}

// checkpointObserve is called from applyCompletion for every completed
// iteration: it journals the record, with the selector RNG's draw count,
// unsynced — the operation that completed it syncs once, through
// journalSync, before it returns — and takes the periodic snapshot. A replica journals into its global
// tuner's log, tagged with its context, and counts toward that log's
// snapshot cadence. Failures are absorbed into ckptErr — persistence
// must never take the tuning loop down with it.
func (t *tuner) checkpointObserve(c completion) {
	lt := t.journalOwner()
	lt.maxTrial = max(lt.maxTrial, c.trial)
	if lt.journal != nil {
		_, draws := t.src.State()
		rec := checkpoint.Record{
			Iter:   lt.logIter,
			Algo:   t.algos[c.algo].Name,
			Config: checkpoint.Floats(c.cfg),
			Value:  checkpoint.F(c.value),
			Trial:  c.trial,
			Spec:   c.spec,
			Pinned: c.pinned,
			Ctx:    t.ctx,
			Draws:  draws,
		}
		if c.fail != nil {
			rec.FailKind = c.fail.Kind.String()
		}
		if err := lt.journal.AppendBuffered(rec); err != nil {
			lt.ckptErr = err
		}
	}
	// A snapshot taken now must encode t again: this operation changed
	// it, and the operation's unlock has not yet said so.
	t.exported = false
	lt.advanceLog()
}

// advanceLog counts one record into the log and takes the periodic
// snapshot when it is due.
func (t *tuner) advanceLog() {
	t.logIter++
	if t.ckptEvery > 0 && t.logIter%t.ckptEvery == 0 {
		if err := t.snapshotNow(); err != nil {
			t.ckptErr = err
			return
		}
		// A pending error made this snapshot roll a new segment, whose
		// creation proves the directory is writable again.
		t.ckptErr = nil
	}
}

// journalMark reserves the trial IDs up to mark (see idBlock): from now
// on snapshots carry it, and on a durable engine a mark record journals
// it, durable — through the operation's one sync — before the ID that
// crossed the previous mark reaches its caller. Like a drift sentinel,
// a mark does not advance the log's iteration.
func (t *tuner) journalMark(mark uint64) {
	lt := t.journalOwner()
	lt.maxTrial = max(lt.maxTrial, mark)
	if lt.journal == nil {
		return
	}
	if err := lt.journal.AppendBuffered(checkpoint.Record{Iter: lt.logIter, Mark: mark}); err != nil {
		lt.ckptErr = err
	}
}

// journalOwner returns the tuner whose journal holds t's records: its
// global tuner for a context replica, t itself otherwise.
func (t *tuner) journalOwner() *tuner {
	if t.owner != nil {
		return t.owner
	}
	return t
}

// journalSync makes every line journaled since the last sync durable.
// It is the one durability point: every operation that journals reaches
// it, through Tuner.unlock, before it returns, so no acknowledged trial
// rests on unsynced bytes. No-op when nothing is buffered.
func (t *tuner) journalSync() {
	lt := t.journalOwner()
	if lt.journal == nil {
		return
	}
	if err := lt.journal.Sync(); err != nil {
		lt.ckptErr = err
	}
}

// HasCheckpoint reports whether dir holds checkpoint state: a journal
// segment with bytes in it, or format-2 files. The constructors resume
// such a directory instead of starting fresh in it, and refuse one whose
// only state is format 2 (checkpoint.ErrFormat2). The empty dir
// ("checkpointing off") holds none.
func HasCheckpoint(dir string) bool {
	return dir != "" && checkpoint.Exists(dir)
}

// openCheckpoint makes a freshly built tuner durable in t.ckptDir (a
// no-op without WithCheckpoint). A directory without state starts fresh:
// it is created and its first segment opens with the initial snapshot. A
// directory with state is resumed: the newest valid snapshot is
// restored — falling back to the one before it when the newest is
// truncated or corrupt — the records after it are replayed, one
// completion at a time (a contextual record through its replica, see
// replayContextRecord), and a new segment opens with a fresh snapshot,
// so a corrupted newest snapshot is healed by the resume itself and a
// torn tail is never followed by new records. At most the trials in
// flight in the crashed process are lost.
//
// Unlike later periodic snapshots, any failure here is fatal: a tuner
// that was asked to be durable but cannot write its directory, or would
// drop the history the directory holds, must not start.
func (t *tuner) openCheckpoint() error {
	dir := t.ckptDir
	if dir == "" {
		return nil
	}
	st, err := checkpoint.Load(dir)
	if err != nil {
		return fmt.Errorf("core: resume from %s: %w", dir, err)
	}
	t.ckptSeq = st.Seq
	if st.Payload == nil {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("core: checkpoint dir: %w", err)
		}
		return t.snapshotNow()
	}
	if err := t.RestoreState(st.Payload); err != nil {
		return fmt.Errorf("core: resume from %s: %w", dir, err)
	}
	t.logIter = st.Iter
	t.replaying = true
	defer func() { t.replaying = false }()
	for _, rec := range st.Records {
		if rec.Mark != 0 {
			continue // a trial-ID reservation; st.Trial covers it
		}
		if rec.Drift != "" {
			// A journaled selector reset. Detection never fires during
			// replay (snapshots do not persist detector state, so a
			// differently-warmed detector could diverge the replay);
			// the sentinel is the authoritative record of the reset,
			// and the sequence guard skips any reset already inside
			// the snapshot.
			rt, err := t.recordTuner(rec)
			if err != nil {
				return fmt.Errorf("core: resume from %s: %w", dir, err)
			}
			rt.applyDriftRecord(rec)
			continue
		}
		if rec.Iter < t.logIter {
			continue // already inside the snapshot
		}
		if rec.Iter > t.logIter {
			return fmt.Errorf("core: resume from %s: journal gap at iteration %d (log at %d)", dir, rec.Iter, t.logIter)
		}
		var err error
		if rec.Ctx == "" {
			err = t.replayCompletion(rec)
		} else {
			err = t.replayContextRecord(rec)
		}
		if err != nil {
			return fmt.Errorf("core: resume from %s: %w", dir, err)
		}
		t.logIter++
	}
	t.maxTrial = st.Trial
	return t.snapshotNow()
}

// replayCompletion is the replay step: it applies one journaled
// completion to the decision state, routed exactly as it was live.
// Speculative and pinned completions bypass phase one. A primary
// completion re-enacts its lease: the drift re-probe it took, if it took
// one, and the selector RNG's draw count it journaled are restored, and
// its algorithm's strategy proposes again — unless the restored
// snapshot left the strategy holding that proposal — before it hears
// the report. The re-proposal must be the journaled configuration, as
// a check that the directory was written by this configuration. So a
// single caller's resumed run makes the decisions of an uninterrupted
// one, for every phase-one strategy, and a concurrent run's strategies
// see the proposals and reports they saw live, in journal order (the
// order each strategy originally saw). Journals written before draw
// counts replay a differing re-proposal as journaled. Trials leased but
// never completed before the crash are lost by design: they were never
// journaled.
func (t *tuner) replayCompletion(rec checkpoint.Record) error {
	algo := t.algoIndex(rec.Algo)
	if algo < 0 {
		return fmt.Errorf("journal iteration %d names unknown algorithm %q", rec.Iter, rec.Algo)
	}
	cfg := param.Config(checkpoint.Unfloats(rec.Config))
	t.src.AdvanceTo(rec.Draws)
	var report func(param.Config, float64)
	if !rec.Pinned && !rec.Spec {
		t.replayProbe(algo)
		s := t.strategies[algo]
		if t.held == nil || !t.held[algo] {
			if p := s.Propose(); !p.Equal(cfg) && rec.Draws != 0 {
				return fmt.Errorf("journal iteration %d runs %s at %v, its strategy proposes %v — checkpoint was written by a different configuration",
					rec.Iter, rec.Algo, cfg, p)
			}
		} else {
			t.held[algo] = false
		}
		report = s.Report
	}
	t.applyCompletion(completion{
		algo: algo, cfg: cfg, value: float64(rec.Value),
		fail: replayedFailure(rec, algo), pinned: rec.Pinned, trial: rec.Trial, spec: rec.Spec,
	}, report)
	return nil
}

// replayedFailure rebuilds a journaled failure, or returns nil when the
// record is a measurement. An unknown kind replays as guard.Invalid.
func replayedFailure(rec checkpoint.Record, algo int) *guard.Failure {
	if rec.FailKind == "" {
		return nil
	}
	kind, ok := guard.KindFromString(rec.FailKind)
	if !ok {
		kind = guard.Invalid
	}
	return &guard.Failure{Kind: kind, Algo: algo, Err: errors.New("replayed failure"), Penalty: float64(rec.Value)}
}
