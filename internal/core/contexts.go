package core

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/nominal"
	"repro/internal/search"
)

// A ContextHook is what a contextual engine (package ctxtune) supplies to
// its global engine, NewContextualTuner: how a context's replica is
// built, and its partitioner's part of the durable log. Core calls every
// method under the engine mutex.
type ContextHook interface {
	// Replica returns the selector and seed of the replica of context
	// ctx, before it is built.
	Replica(ctx string) (nominal.Selector, int64)
	// WarmStart seeds a newly built replica's selector from the global
	// engine's.
	WarmStart(replica, global nominal.Selector)
	// Born announces each replica as it is built, live or on resume
	// (where its state is restored after the call).
	Born(ctx string, replica *Tuner)
	// Splits returns the partitioner's splits made since the previous
	// call, oldest first, as records (Ctx and Split set) for the log.
	Splits() []checkpoint.Record
	// ExportPartition and RestorePartition snapshot the partitioner.
	ExportPartition() ([]byte, error)
	RestorePartition(data []byte) error
	// ReplaySplit re-applies a journaled split.
	ReplaySplit(rec checkpoint.Record)
}

// contextSet is a contextual engine's global tuner's view of its
// contexts: the replicas, which share the global engine's mutex and
// trial-ID counter and keep their records in its log, and what it takes
// to build another.
type contextSet struct {
	hook     ContextHook
	mu       *engineMu
	factory  search.Factory
	opts     []Option // the global engine's; a replica keeps no checkpoint of its own
	replicas map[string]*Tuner
}

func newContextSet(hook ContextHook, mu *engineMu, factory search.Factory, opts []Option) *contextSet {
	return &contextSet{hook: hook, mu: mu, factory: factory, opts: opts, replicas: make(map[string]*Tuner)}
}

// NewContextualTuner builds the global engine of a contextual engine: a
// tuner like NewTuner's, with one replica per context (Replica) beside
// it. The replicas share its mutex, so every operation on any of them is
// one operation of the whole engine, and its trial-ID counter, so a
// trial ID names one trial of the whole engine, before and after a
// resume; the global
// selector learns from each replica's successful trials; and the
// replicas' completions, failures and drift resets, their births and the
// partitioner's splits are records of the global engine's log, tagged
// with their context, while its snapshots carry the partitioner and
// every replica's state. With WithCheckpoint on a directory that holds a
// checkpoint, the whole engine, replicas and partitioner included,
// resumes from that one log.
func NewContextualTuner(algos []Algorithm, selector nominal.Selector, factory search.Factory, seed int64, hook ContextHook, opts ...Option) (*Tuner, error) {
	if hook == nil {
		return nil, errors.New("core: NewContextualTuner with nil hook")
	}
	c, err := buildEngine(algos, selector, factory, seed, hook, opts)
	if err != nil {
		return nil, err
	}
	for _, r := range c.t.ctxs.replicas {
		r.publishLocked() // resumed replicas
	}
	return c, nil
}

// Replica returns the replica of context ctx, building it when the
// context has none yet: its selector starts from the global selector's
// state (ContextHook.WarmStart), and on a durable engine the birth is a
// record of the log, after the splits made before it, durable before
// Replica returns. It fails on an engine built without contexts.
func (c *Tuner) Replica(ctx string) (*Tuner, error) {
	c.mu.Lock()
	defer c.unlock()
	cs := c.t.ctxs
	if cs == nil {
		return nil, errors.New("core: Replica on an engine built without contexts")
	}
	if r := cs.replicas[ctx]; r != nil {
		return r, nil
	}
	c.t.journalSplitsLocked()
	r, err := cs.birth(c.t, ctx)
	if err != nil {
		return nil, err
	}
	c.t.journalContextEvent(checkpoint.Record{Ctx: ctx})
	return r, nil
}

// JournalSplits journals the splits the partitioner made since the last
// call (ContextHook.Splits) and returns once they are durable. No-op
// without WithCheckpoint.
func (c *Tuner) JournalSplits() {
	c.mu.Lock()
	defer c.unlock()
	c.t.journalSplitsLocked()
}

func (t *tuner) journalSplitsLocked() {
	if t.ckptDir == "" || t.ctxs == nil {
		return
	}
	for _, rec := range t.ctxs.hook.Splits() {
		t.journalContextEvent(rec)
	}
}

// journalContextEvent journals a birth or a split record at the log's
// next position.
func (t *tuner) journalContextEvent(rec checkpoint.Record) {
	if t.ckptDir == "" {
		return
	}
	rec.Iter = t.logIter
	if t.journal != nil {
		if err := t.journal.AppendBuffered(rec); err != nil {
			t.ckptErr = err
		}
	}
	t.advanceLog()
}

// birth builds the replica of context ctx beside the global tuner g.
func (cs *contextSet) birth(g *tuner, ctx string) (*Tuner, error) {
	sel, seed := cs.hook.Replica(ctx)
	r, err := build(g.algos, sel, cs.factory, seed, cs.opts, cs.mu)
	if err != nil {
		return nil, fmt.Errorf("core: context %s: %w", ctx, err)
	}
	rt := r.t
	rt.ckptDir, rt.ckptEvery = "", 0 // its records go to g's log
	rt.ctx, rt.owner = ctx, g
	cs.hook.WarmStart(sel, g.selector)
	cs.replicas[ctx] = r
	cs.hook.Born(ctx, r)
	return r, nil
}

// appendState appends the snapshot's "contexts" field to b: the
// partitioner's export and each replica's snapshot payload, by context in
// sorted order, as json.Marshal writes contextsState. A replica no
// operation has touched since the previous snapshot keeps that
// snapshot's encoding, so the cost of a snapshot follows the contexts in
// use, not every context ever born.
func (cs *contextSet) appendState(b []byte) ([]byte, error) {
	part, err := cs.hook.ExportPartition()
	if err != nil {
		return nil, fmt.Errorf("core: exporting partitioner: %w", err)
	}
	b = append(b, `,"contexts":{"partitioner":`...)
	b = append(b, part...)
	b = append(b, `,"replicas":{`...)
	ids := make([]string, 0, len(cs.replicas))
	for id := range cs.replicas {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for i, id := range ids {
		rt := cs.replicas[id].t
		if !rt.exported {
			if _, err := rt.ExportState(); err != nil {
				return nil, fmt.Errorf("core: context %s: %w", id, err)
			}
			rt.exported = true
		}
		raw := rt.stateBuf
		if i > 0 {
			b = append(b, ',')
		}
		b = checkpoint.AppendString(b, id)
		b = append(b, ':')
		b = append(b, raw...)
	}
	return append(b, "}}"...), nil
}

// restore rebuilds the partitioner and every replica of a snapshot.
func (cs *contextSet) restore(g *tuner, st *contextsState) error {
	if err := cs.hook.RestorePartition(st.Partitioner); err != nil {
		return err
	}
	for id, raw := range st.Replicas {
		r, err := cs.birth(g, id)
		if err != nil {
			return err
		}
		if err := r.t.RestoreState(raw); err != nil {
			return fmt.Errorf("core: context %s: %w", id, err)
		}
	}
	return nil
}

// recordTuner returns the tuner a journaled record replays into: the
// replica its Ctx names, or t.
func (t *tuner) recordTuner(rec checkpoint.Record) (*tuner, error) {
	if rec.Ctx == "" {
		return t, nil
	}
	if t.ctxs == nil {
		return nil, fmt.Errorf("journal iteration %d belongs to context %q — build it as a contextual engine", rec.Iter, rec.Ctx)
	}
	r := t.ctxs.replicas[rec.Ctx]
	if r == nil {
		return nil, fmt.Errorf("journal iteration %d names context %q, never born", rec.Iter, rec.Ctx)
	}
	return r.t, nil
}

// replayContextRecord replays a record tagged with a context: a birth, a
// split, or a replica's completion.
func (t *tuner) replayContextRecord(rec checkpoint.Record) error {
	if t.ctxs == nil {
		return fmt.Errorf("journal iteration %d belongs to context %q — build it as a contextual engine", rec.Iter, rec.Ctx)
	}
	switch {
	case rec.Algo == "" && len(rec.Split) > 0:
		t.ctxs.hook.ReplaySplit(rec)
		return nil
	case rec.Algo == "":
		if t.ctxs.replicas[rec.Ctx] == nil {
			_, err := t.ctxs.birth(t, rec.Ctx)
			return err
		}
		return nil
	}
	rt, err := t.recordTuner(rec)
	if err != nil {
		return err
	}
	rt.replaying = true
	defer func() { rt.replaying = false }()
	return rt.replayCompletion(rec)
}
