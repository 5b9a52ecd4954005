package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/tuned"
	"repro/internal/wire"
)

// span is one timed interval at a layer boundary. All spans of one
// lease→measure→complete batch share ID, the batch's first trial ID;
// Parent names the span of the same batch that caused this one.
type span struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Span names. A server or engine span's parent is the client span of
// the same operation, so self time is a span minus its child.
const (
	spBatch          = "batch"
	spClientLease    = "client.lease"
	spClientComplete = "client.complete"
	spKernel         = "kernel"
	spServerLease    = "server.lease"
	spServerComplete = "server.complete"
	spEngineLease    = "engine.lease"
	spEngineComplete = "engine.complete"
)

var spanParent = map[string]string{
	spClientLease:    spBatch,
	spClientComplete: spBatch,
	spKernel:         spBatch,
	spServerLease:    spClientLease,
	spServerComplete: spClientComplete,
	spEngineLease:    spServerLease,
	spEngineComplete: spServerComplete,
}

// tracer keeps every span of a traced run's timed phase in memory, plus
// the byte and syscall counts the listener wrapper sees on the server's
// connections. Nothing is recorded while on is false (set-up and
// warm-up).
type tracer struct {
	base time.Time
	on   atomic.Bool

	mu    sync.Mutex
	spans []span

	reads, writes, bytes, requests, responses atomic.Int64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// at converts a wall-clock instant to the tracer's nanosecond timeline.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.base)) }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(name string, id uint64, start, end int64) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: spanParent[name], Start: start, End: end})
	t.mu.Unlock()
}

// durations returns the durations in µs of every span with the given
// name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// selfTimes returns, in µs, each parent span's duration minus its child
// span's of the same batch, for every batch that has both.
func (t *tracer) selfTimes(parent, child string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[uint64]int64)
	for _, s := range t.spans {
		if s.Name == child {
			kids[s.ID] = s.End - s.Start
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name != parent {
			continue
		}
		if k, ok := kids[s.ID]; ok {
			out = append(out, float64(s.End-s.Start-k)/1e3)
		}
	}
	return out
}

// busyNS sums the durations of every span with the given names.
func (t *tracer) busyNS(names ...string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum int64
	for _, s := range t.spans {
		for _, n := range names {
			if s.Name == n {
				sum += s.End - s.Start
			}
		}
	}
	return sum
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedListener hands the server connections whose reads and writes
// are parsed frame by frame, so the time each request spends inside the
// server can be measured from outside it.
type tracedListener struct {
	net.Listener
	tr *tracer
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, tr: l.tr, m: newFrameMatcher(l.tr.add)}, nil
}

type tracedConn struct {
	net.Conn
	tr *tracer
	m  *frameMatcher
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		reqs := c.m.read(p[:n], c.tr.now())
		if c.tr.on.Load() {
			c.tr.reads.Add(1)
			c.tr.bytes.Add(int64(n))
			c.tr.requests.Add(int64(reqs))
		}
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	now := c.tr.now()
	n, err := c.Conn.Write(p)
	resps := c.m.write(p[:n], now)
	if c.tr.on.Load() {
		c.tr.writes.Add(1)
		c.tr.bytes.Add(int64(n))
		c.tr.responses.Add(int64(resps))
	}
	return n, err
}

// frameMatcher pairs the request frames a server reads with the
// response frames it writes, using only the 16-byte frame header (plus
// the leading trial ID of packed trial payloads, which names the batch).
// v3 pipelined requests carry a nonzero correlation ID and may be
// answered out of order; lockstep requests carry 0 and are answered in
// order. It reports each lease and completion as a span running from
// the last request byte read to the first response byte written.
type frameMatcher struct {
	emit func(name string, id uint64, start, end int64)

	mu      sync.Mutex
	in, out frameBuf
	byCorr  map[uint16]pendingReq
	fifo    []pendingReq
}

type pendingReq struct {
	typ wire.Type
	end int64  // when its last byte was read
	id  uint64 // first trial ID, for completions
}

func newFrameMatcher(emit func(name string, id uint64, start, end int64)) *frameMatcher {
	return &frameMatcher{emit: emit, byCorr: make(map[uint16]pendingReq)}
}

// read feeds bytes the server read at time now, returning how many
// request frames they completed.
func (m *frameMatcher) read(p []byte, now int64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	m.in.feed(p, now, func(typ wire.Type, corr uint16, payload []byte, _ int64) {
		n++
		req := pendingReq{typ: typ, end: now}
		if typ == wire.TCompleteP {
			req.id = firstCompleteID(payload)
		}
		if corr != 0 {
			m.byCorr[corr] = req
		} else {
			m.fifo = append(m.fifo, req)
		}
	})
	return n
}

// write feeds bytes the server wrote starting at time now, returning how
// many response frames they completed.
func (m *frameMatcher) write(p []byte, now int64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	m.out.feed(p, now, func(typ wire.Type, corr uint16, payload []byte, start int64) {
		n++
		var req pendingReq
		if corr != 0 {
			r, ok := m.byCorr[corr]
			if !ok {
				return
			}
			delete(m.byCorr, corr)
			req = r
		} else {
			if len(m.fifo) == 0 {
				return
			}
			req = m.fifo[0]
			m.fifo = m.fifo[1:]
		}
		switch req.typ {
		case wire.TLeaseP:
			if id, ok := firstLeasedID(payload); ok && typ == wire.TTrialsP {
				m.emit(spServerLease, id, req.end, start)
			}
		case wire.TCompleteP:
			if typ == wire.TAckP {
				m.emit(spServerComplete, req.id, req.end, start)
			}
		}
	})
	return n
}

// frameBuf reassembles frames from a byte stream cut at arbitrary
// points.
type frameBuf struct {
	buf   []byte
	start int64 // when the current frame's first byte passed
}

func (f *frameBuf) feed(p []byte, now int64, onFrame func(typ wire.Type, corr uint16, payload []byte, start int64)) {
	for len(p) > 0 {
		if len(f.buf) == 0 {
			f.start = now
		}
		if len(f.buf) < wire.HeaderSize {
			take := min(wire.HeaderSize-len(f.buf), len(p))
			f.buf = append(f.buf, p[:take]...)
			p = p[take:]
			if len(f.buf) < wire.HeaderSize {
				return
			}
		}
		total := wire.HeaderSize + int(binary.BigEndian.Uint32(f.buf[8:12]))
		take := min(total-len(f.buf), len(p))
		f.buf = append(f.buf, p[:take]...)
		p = p[take:]
		if len(f.buf) == total {
			onFrame(wire.Type(f.buf[5]), binary.BigEndian.Uint16(f.buf[6:8]), f.buf[wire.HeaderSize:], f.start)
			f.buf = f.buf[:0]
		}
	}
}

// firstLeasedID reads the first trial ID of a packed trials payload:
// u64 epoch, flags byte, uvarint retryMS, uvarint suggestMax, uvarint
// count, then the first trial's uvarint ID.
func firstLeasedID(b []byte) (uint64, bool) {
	if len(b) < 9 {
		return 0, false
	}
	b = b[9:]
	var n uint64
	for i := 0; i < 3; i++ {
		v, k := binary.Uvarint(b)
		if k <= 0 {
			return 0, false
		}
		n, b = v, b[k:]
	}
	if n == 0 {
		return 0, false
	}
	id, k := binary.Uvarint(b)
	return id, k > 0
}

// firstCompleteID reads the first trial ID of a packed completion
// payload: u64 epoch, uvarint worker, uvarint count, uvarint ID.
func firstCompleteID(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	b = b[8:]
	for i := 0; i < 2; i++ {
		_, k := binary.Uvarint(b)
		if k <= 0 {
			return 0
		}
		b = b[k:]
	}
	id, _ := binary.Uvarint(b)
	return id
}

// The server type-asserts these optional engine extensions; they mirror
// its unexported shardedEngine and contextualEngine method sets.
type shardedEngine interface {
	tuned.Engine
	Shards() int
	LeaseNOn(shard, n int) ([]core.Trial, error)
}

type contextualEngine interface {
	tuned.Engine
	LeaseNFor(features []float64, n int) ([]core.Trial, error)
	ContextCount() int
}

// wrapEngine times every lease and completion call into inner. The
// wrapper has the sharded and contextual method sets exactly when inner
// does, so the server dispatches through it as it would to inner.
func wrapEngine(inner tuned.Engine, tr *tracer) tuned.Engine {
	te := &timedEngine{Engine: inner, tr: tr}
	se, sharded := inner.(shardedEngine)
	ce, contextual := inner.(contextualEngine)
	switch {
	case sharded && contextual:
		return &timedShardedContextual{timedSharded: &timedSharded{timedEngine: te, inner: se}, inner: ce}
	case sharded:
		return &timedSharded{timedEngine: te, inner: se}
	case contextual:
		return &timedContextual{timedEngine: te, inner: ce}
	}
	return te
}

type timedEngine struct {
	tuned.Engine
	tr *tracer
}

func (e *timedEngine) leased(start int64, trials []core.Trial) {
	if len(trials) > 0 {
		e.tr.add(spEngineLease, trials[0].ID, start, e.tr.now())
	}
}

func (e *timedEngine) LeaseN(n int) ([]core.Trial, error) {
	start := e.tr.now()
	trials, err := e.Engine.LeaseN(n)
	e.leased(start, trials)
	return trials, err
}

func (e *timedEngine) CompleteN(results []core.TrialResult) []error {
	start := e.tr.now()
	errs := e.Engine.CompleteN(results)
	if len(results) > 0 {
		e.tr.add(spEngineComplete, results[0].ID, start, e.tr.now())
	}
	return errs
}

type timedSharded struct {
	*timedEngine
	inner shardedEngine
}

func (e *timedSharded) Shards() int { return e.inner.Shards() }

func (e *timedSharded) LeaseNOn(shard, n int) ([]core.Trial, error) {
	start := e.tr.now()
	trials, err := e.inner.LeaseNOn(shard, n)
	e.leased(start, trials)
	return trials, err
}

type timedContextual struct {
	*timedEngine
	inner contextualEngine
}

func (e *timedContextual) ContextCount() int { return e.inner.ContextCount() }

func (e *timedContextual) LeaseNFor(features []float64, n int) ([]core.Trial, error) {
	start := e.tr.now()
	trials, err := e.inner.LeaseNFor(features, n)
	e.leased(start, trials)
	return trials, err
}

type timedShardedContextual struct {
	*timedSharded
	inner contextualEngine
}

func (e *timedShardedContextual) ContextCount() int { return e.inner.ContextCount() }

func (e *timedShardedContextual) LeaseNFor(features []float64, n int) ([]core.Trial, error) {
	start := e.tr.now()
	trials, err := e.inner.LeaseNFor(features, n)
	e.leased(start, trials)
	return trials, err
}
