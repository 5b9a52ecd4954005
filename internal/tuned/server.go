// Package tuned is the distributed tuning service: a TCP front-end over
// the two-phase tuner's lease-based trial engine (core.Tuner), so trials
// can be evaluated by worker processes on other machines while one
// server owns the decision state.
//
// The division of labour mirrors the in-process engine exactly. The
// server runs both tuning phases and the crash-safe journal; workers
// are pure measurement loops — lease a batch, run it, report a batch —
// with no tuning state of their own. A report also leases the next
// batch in the same round trip: the client holds it for the next lease
// under the same feature vector, so a lockstep worker pays one round
// trip per batch, and hands back, unpenalized, a held batch no lease
// took when it closes or once half the batch's lease time has passed.
// Every failure mode reduces to one the engine already handles:
//
//   - A worker that dies holding leases is a missed deadline; the
//     engine reclaims the trials as Timeout failures, trials it held
//     ahead included. Long measurements stay alive by heartbeating.
//   - A duplicate or late report (client retry, reclaimed lease) is
//     acknowledged and dropped — completion is idempotent per trial ID.
//   - A server restart resumes from snapshot + journal (the engine
//     constructors resume a WithCheckpoint directory that holds a
//     checkpoint) under a fresh session epoch; reports for
//     leases issued by the dead process carry the old epoch and are
//     dropped, never misapplied to a re-issued trial ID, and a client
//     discards the trials it held ahead once it sees the new epoch.
//
// A server serves a tenant registry (NewTenantServer): named tuning
// problems behind one port, each with its own engine, epoch, persistence
// directory and calibration state. A server over one engine (NewServer)
// serves the registry tenant.NewSingle builds around it, whose only
// tenant is "default". Sessions are routed by the tenant name in their
// Hello; a Hello that names none lands on the "default" tenant, so
// one-engine deployments never notice.
//
// Sessions speak wire.Version only: trial operations travel as packed
// frames, and a Hello of any other version is refused.
package tuned

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/nominal"
	"repro/internal/tenant"
	"repro/internal/wire"
)

// Engine is the trial-engine surface the server needs, declared once as
// tenant.Engine: leasing, reporting, degraded-mode absorption,
// checkpointing and the read-side summary calls.
type Engine = tenant.Engine

// contextualEngine is the optional extension a contextual engine
// provides (ctxtune.Engine): feature-bearing LeaseN requests route to a
// per-context selector replica, and the engine refines its partitioner
// from the completions that flow back (it remembers each contextual
// trial's feature vector itself, so CompleteN needs no extra plumbing).
// Declared structurally — with plain []float64, not a ctxtune type — so
// any engine can opt in without this package importing the subsystem.
type contextualEngine interface {
	Engine
	LeaseNFor(features []float64, n int) ([]core.Trial, error)
	ContextCount() int
}

// DefaultMaxBatch caps the batch size a single LeaseN request may ask
// for; larger requests are clamped, not rejected.
const DefaultMaxBatch = 64

// ConfigHash summarizes a tuning run's algorithm roster for the
// handshake: workers refuse to feed measurements into a run whose
// algorithm indices mean something else. It is wire.ConfigHash — the
// definition moved next to the protocol so the tenant registry computes
// the same hash without importing this package.
func ConfigHash(algos []string) uint32 { return wire.ConfigHash(algos) }

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithTrialTarget makes LeaseN responses report Done once the session's
// tenant engine has completed n trials, telling workers to exit. Zero
// (the default) serves leases indefinitely. The target applies to each
// tenant separately.
func WithTrialTarget(n int) ServerOption {
	return func(s *Server) { s.target = n }
}

// WithMaxBatch overrides DefaultMaxBatch.
func WithMaxBatch(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.maxBatch = n
		}
	}
}

// WithSessionCap bounds the leases one connection may hold at once.
// A LeaseN request from a session at its cap gets an empty busy
// response with a load-derived RetryMS instead of trials. Zero (the
// default) leaves sessions unbounded.
func WithSessionCap(n int) ServerOption {
	return func(s *Server) { s.sessionCap = n }
}

// WithGlobalCap bounds the total in-flight leases per engine,
// independently of the engine's own MaxInFlight. Requests over the cap
// get the same busy response. The cap applies to each tenant's engine
// separately — it is an engine-protection limit, not a fleet quota.
// Zero (the default) disables the cap.
func WithGlobalCap(n int) ServerOption {
	return func(s *Server) { s.globalCap = n }
}

// WithRefAlgo sets the algorithm index workers probe when calibrating
// their speed factor (default 0, the first algorithm), in every tenant.
// Indices outside a tenant's roster fall back to 0 for that tenant.
func WithRefAlgo(i int) ServerOption {
	return func(s *Server) {
		if i >= 0 {
			s.refAlgo = i
		}
	}
}

// Server serves a tenant registry's engines over TCP. It owns no tuning
// state itself: every request maps onto one call on the session's
// tenant engine, so the engine's locking, lease reclamation and
// checkpoint journal work unchanged whether trials complete from a local
// goroutine or a remote worker. The engine is acquired per request, so
// the registry's LRU can spill idle tenants in between.
type Server struct {
	reg        *tenant.Registry
	target     int
	maxBatch   int
	sessionCap int // max leases one session may hold; 0 = unbounded
	globalCap  int // max in-flight leases per engine; 0 = unbounded
	refAlgo    int // calibration reference algorithm index

	draining atomic.Bool // set by Drain: answer leases with Draining

	// rtMu guards the per-tenant wire-side runtime table. Runtime state
	// (absorb dedup, calibration) deliberately lives here, not on the
	// engine: it must survive an engine spill, because a worker's seq
	// numbering and speed factor outlive any one residency.
	rtMu sync.Mutex
	rts  map[string]*tenantRT

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// tenantRT is one tenant's wire-side runtime: everything the protocol
// layer tracks about a tenant that is not tuning state. It survives the
// tenant's engine being spilled and warm-restarted.
type tenantRT struct {
	name  string
	epoch int64
	hash  uint32

	// Rebalancing state. sessions counts live connections on this
	// tenant; starved accumulates lease requests the caps answered with
	// an empty batch while peers held capacity, and drains as hoarding
	// sessions get clamped to their fair share. rebalanced counts those
	// clamps for the stats view.
	sessions   atomic.Int64
	starved    atomic.Int64
	rebalanced atomic.Uint64

	// absorbMu serializes degraded-mode delta application so the
	// (worker, seq) dedup check and the engine Absorb are atomic: a
	// retried AbsorbReq can never double-apply its observations.
	absorbMu  sync.Mutex
	absorbSeq map[uint64]uint64 // worker ID → highest applied seq

	// calMu guards the worker-bias calibration table. refs holds each
	// worker's latest reference-probe time; baseline is the fleet
	// minimum, so the fastest calibrated worker has factor 1 and every
	// slower one a factor > 1 that its reported costs are divided by.
	calMu    sync.Mutex
	refs     map[uint64]float64
	baseline float64
}

// session is the per-connection state: the tenant it was routed to and
// the lease ledger backing the session cap.
// The connection's read loop is the only goroutine that touches a
// session, so nothing in it is locked, and the decode targets and reply
// scratch below serve every request in turn: the packed decoders reset
// every field and reuse their slices, and no engine keeps a request or
// reply slice past the call.
type session struct {
	rt     *tenantRT
	bw     *bufio.Writer       // reply buffer over the connection
	leased map[uint64]struct{} // lease IDs issued to this connection

	leaseReq    wire.PackedLeaseReq
	completeReq wire.PackedCompleteReq
	failReq     wire.PackedFailReq
	trials      wire.PackedTrials
	ack         wire.PackedAck
	results     []core.TrialResult
}

// reply buffers one reply frame echoing the request's correlation ID.
// The read loop flushes the buffer.
func (sess *session) reply(typ wire.Type, corr uint16, p wire.Payload) error {
	return wire.WriteFrame(sess.bw, wire.Version, typ, corr, p)
}

// resetAck empties the session's reusable ack.
func (sess *session) resetAck() *wire.PackedAck {
	ack := &sess.ack
	ack.Applied, ack.Dropped, ack.HasNext = ack.Applied[:0], ack.Dropped[:0], false
	return ack
}

// prune drops ledger entries the engine no longer considers live
// (completed elsewhere, expired and reclaimed), without extending any
// deadlines, so a session that abandons leases gets its quota back as
// the engine reclaims them.
func (sess *session) prune(eng Engine) {
	if len(sess.leased) == 0 {
		return
	}
	ids := make([]uint64, 0, len(sess.leased))
	for id := range sess.leased {
		ids = append(ids, id)
	}
	for i, ok := range eng.Alive(ids) {
		if !ok {
			delete(sess.leased, ids[i])
		}
	}
}

// loadRetryMS derives the busy-response retry hint from current load:
// 5ms when idle, climbing linearly to 50ms at the cap, bounded at
// 250ms so a momentarily mis-read load never parks workers for long.
func loadRetryMS(inFlight, capacity int) int64 {
	if capacity <= 0 {
		return 10
	}
	ms := 5 + 45*int64(inFlight)/int64(capacity)
	return min(ms, 250)
}

// NewServer serves a single engine as the sole "default" tenant of a
// tenant.NewSingle registry. The session epoch — stamped into every
// lease and checked on every report — is drawn from the wall clock at
// construction, so two server processes over the same checkpoint
// directory never share an epoch.
func NewServer(eng Engine, opts ...ServerOption) *Server {
	return NewTenantServer(tenant.NewSingle(eng), opts...)
}

// NewTenantServer serves a tenant registry: sessions are routed to the
// tenant named in their Hello (empty = "default"), each backed by its
// own engine, epoch and persistence directory. Unknown tenant names are
// rejected at the handshake.
func NewTenantServer(reg *tenant.Registry, opts ...ServerOption) *Server {
	s := &Server{
		reg:      reg,
		maxBatch: DefaultMaxBatch,
		conns:    make(map[net.Conn]struct{}),
		rts:      make(map[string]*tenantRT),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// rtFor returns the wire-side runtime for a registered tenant, creating
// it on first contact.
func (s *Server) rtFor(t *tenant.Tenant) *tenantRT {
	s.rtMu.Lock()
	defer s.rtMu.Unlock()
	name := t.Spec().Name
	rt := s.rts[name]
	if rt == nil {
		rt = &tenantRT{
			name:      name,
			epoch:     t.Epoch(),
			hash:      t.Hash(),
			absorbSeq: make(map[uint64]uint64),
			refs:      make(map[uint64]float64),
		}
		s.rts[name] = rt
	}
	return rt
}

// Epoch returns the "default" tenant's session epoch (0 if the registry
// has none). Every tenant has its own; see the HelloAck.
func (s *Server) Epoch() int64 {
	if t := s.reg.Tenant(tenant.DefaultName); t != nil {
		return t.Epoch()
	}
	return 0
}

// Hash returns the "default" tenant's config hash (0 if the registry has
// none).
func (s *Server) Hash() uint32 {
	if t := s.reg.Tenant(tenant.DefaultName); t != nil {
		return t.Hash()
	}
	return 0
}

// Rebalanced returns the total number of lease grants the server has
// shrunk to a fair share because a peer session was starving, summed
// across tenants.
func (s *Server) Rebalanced() uint64 {
	s.rtMu.Lock()
	defer s.rtMu.Unlock()
	var n uint64
	for _, rt := range s.rts {
		n += rt.rebalanced.Load()
	}
	return n
}

// Serve accepts connections on ln until Close, handling each on its own
// goroutine. It returns nil after Close, or the first Accept error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("tuned: Serve on a closed server")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Close stops accepting, closes every live connection, and waits for
// the handlers to drain. The engines are left untouched: outstanding
// leases expire on their own deadlines, and a resumed server picks the
// run up from the journals.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain performs a graceful shutdown: stop issuing leases (LeaseN
// answers Draining with a retry hint), wait for in-flight trials to
// complete — reclaiming expired ones along the way — up to the
// timeout, write a final checkpoint for every resident tenant in
// sorted name order (deterministic, so two drains of the same state
// touch disk identically), then Close. Connections stay open through
// the wait so workers can still report and absorb. Spilled tenants
// were checkpointed when they left residency and need nothing here.
//
// Drain returns the first checkpoint error if any snapshot failed,
// else the Close error; a timeout with trials still in flight is not an
// error — those leases die with their epochs and their reports will be
// dropped by the next server process.
func (s *Server) Drain(timeout time.Duration) error {
	if s.draining.Swap(true) {
		return nil // second Drain: already under way
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if s.reg.ReclaimExpired(); s.reg.InFlight() == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, ckErr := s.reg.CheckpointAll()
	if err := s.Close(); err != nil {
		return err
	}
	return ckErr
}

// handle runs one connection: handshake, then the request loop, which
// serves every request inline, so replies leave in request order
// (echoing each request's correlation ID). All of a session's requests
// meet on one engine's decision mutex anyway; serving them concurrently
// would buy goroutine and stack-growth cost, not throughput. A slow request (a tenant warm
// restart, a journal fsync) delays only the requests queued behind it on
// this connection.
//
// Replies buffer, and the loop flushes them before any read that could
// block: while the read buffer still holds a whole request frame it
// serves that first, so a pipelined burst costs one write syscall, and a
// half-arrived frame never holds back the replies already computed.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	defer bw.Flush() // the last reply: a handshake refusal or an abort
	sess := s.handshake(br, bw)
	if sess == nil {
		return
	}
	sess.rt.sessions.Add(1)
	defer sess.rt.sessions.Add(-1)
	var buf []byte
	for {
		if !wire.FrameBuffered(br) && bw.Flush() != nil {
			return
		}
		typ, corr, payload, nbuf, err := wire.ReadFrameBuf(br, buf)
		if err != nil {
			return // disconnect, or a frame this protocol can't resync from
		}
		buf = nbuf
		req, err := sess.decode(typ, payload)
		if err != nil {
			sess.reply(wire.TError, corr, &wire.ErrorResp{Code: wire.CodeBadRequest, Msg: err.Error()})
			return
		}
		if !s.serveReq(sess, typ, corr, req) {
			return
		}
	}
}

// decode parses a request frame's payload into its typed message; trial
// requests decode into the session's packed targets. The payload aliases
// the read loop's reused frame buffer, and the targets are overwritten
// by the next request. Bodyless requests and unknown types return
// (nil, nil); serveReq rejects the latter.
func (sess *session) decode(typ wire.Type, payload []byte) (wire.Payload, error) {
	var req wire.Payload
	switch typ {
	case wire.TLeaseP:
		req = &sess.leaseReq
	case wire.TCompleteP:
		req = &sess.completeReq
	case wire.TFailP:
		req = &sess.failReq
	case wire.TAbsorb:
		req = &wire.AbsorbReq{}
	case wire.TCalibrate:
		req = &wire.CalibrateReq{}
	case wire.THeartbeat:
		req = &wire.HeartbeatReq{}
	default:
		return nil, nil
	}
	if err := req.DecodeFrom(payload); err != nil {
		return nil, err
	}
	return req, nil
}

// handshake validates the client Hello, routes the session to its
// tenant, and answers with the tenant's capabilities. It returns the
// established session, or nil when the connection must not proceed.
// Error frames before the client's version is accepted are stamped v1 —
// the one version every decoder accepts — so a v1 or v2 client reads
// why it was refused.
func (s *Server) handshake(br *bufio.Reader, bw *bufio.Writer) *session {
	typ, payload, err := wire.ReadFrame(br)
	if err != nil {
		return nil
	}
	if typ != wire.THello {
		wire.WriteMsgV(bw, 1, wire.TError, &wire.ErrorResp{Code: wire.CodeBadRequest, Msg: "expected hello"})
		return nil
	}
	var h wire.Hello
	if err := h.DecodeFrom(payload); err != nil {
		wire.WriteMsgV(bw, 1, wire.TError, &wire.ErrorResp{Code: wire.CodeBadRequest, Msg: err.Error()})
		return nil
	}
	if h.Proto != wire.Version {
		wire.WriteMsgV(bw, 1, wire.TError, &wire.ErrorResp{
			Code: wire.CodeBadRequest, Msg: fmt.Sprintf("protocol version %d, server speaks %d..%d", h.Proto, wire.Version, wire.Version)})
		return nil
	}
	sess := &session{
		bw:     bw,
		leased: make(map[uint64]struct{}),
	}
	name := h.Tenant
	if name == "" {
		name = tenant.DefaultName
	}
	t := s.reg.Tenant(name)
	if t == nil {
		sess.reply(wire.TError, 0, &wire.ErrorResp{
			Code: wire.CodeUnknownTenant, Msg: fmt.Sprintf("unknown tenant %q", name)})
		return nil
	}
	sess.rt = s.rtFor(t)
	if h.Hash != 0 && h.Hash != sess.rt.hash {
		sess.reply(wire.TError, 0, &wire.ErrorResp{
			Code: wire.CodeConfigMismatch,
			Msg:  fmt.Sprintf("config hash %08x, tenant %s runs %08x", h.Hash, name, sess.rt.hash)})
		return nil
	}
	eng, _, release, err := s.reg.Acquire(name)
	if err != nil {
		sess.reply(wire.TError, 0, &wire.ErrorResp{Code: wire.CodeInternal, Msg: err.Error()})
		return nil
	}
	defer release()
	names := make([]string, eng.NumAlgorithms())
	for i := range names {
		names[i] = eng.AlgorithmName(i)
	}
	ack := wire.HelloAck{
		Proto:      wire.Version,
		Hash:       sess.rt.hash,
		Epoch:      sess.rt.epoch,
		Algos:      names,
		LeaseTTLMS: eng.LeaseTimeout().Milliseconds(),
		RefAlgo:    s.refAlgoFor(eng),
		Tenant:     name,
	}
	if sess.reply(wire.THelloAck, 0, &ack) != nil {
		return nil
	}
	return sess
}

// refAlgoFor clamps the configured calibration reference into the
// engine's roster (a tenant with a shorter roster falls back to 0).
func (s *Server) refAlgoFor(eng Engine) int {
	if s.refAlgo >= 0 && s.refAlgo < eng.NumAlgorithms() {
		return s.refAlgo
	}
	return 0
}

// serveReq serves one decoded request on the session's read loop
// against the session's tenant engine — acquired per request, so the
// registry may spill the tenant between requests — and buffers its reply
// echoing corr. It reports whether the connection should stay open.
func (s *Server) serveReq(sess *session, typ wire.Type, corr uint16, req wire.Payload) bool {
	if typ == wire.TTenants {
		// The aggregate view needs no engine (and must not force one
		// resident).
		return s.serveTenants(sess, corr)
	}
	eng, _, release, err := s.reg.Acquire(sess.rt.name)
	if err != nil {
		sess.reply(wire.TError, corr, &wire.ErrorResp{Code: wire.CodeInternal, Msg: err.Error()})
		return false
	}
	defer release()
	switch typ {
	case wire.TLeaseP:
		return s.serveLease(sess, eng, corr, req.(*wire.PackedLeaseReq))
	case wire.TCompleteP:
		return s.serveComplete(sess, eng, corr, req.(*wire.PackedCompleteReq))
	case wire.TFailP:
		return s.serveFail(sess, eng, corr, req.(*wire.PackedFailReq))
	case wire.TAbsorb:
		return s.serveAbsorb(sess, eng, corr, req.(*wire.AbsorbReq))
	case wire.TCalibrate:
		return s.serveCalibrate(sess, corr, req.(*wire.CalibrateReq))
	case wire.THeartbeat:
		return s.serveHeartbeat(sess, eng, corr, req.(*wire.HeartbeatReq))
	case wire.TBest:
		return s.serveBest(sess, eng, corr)
	case wire.TStats:
		return s.serveStats(sess, eng, corr)
	default:
		sess.reply(wire.TError, corr, &wire.ErrorResp{
			Code: wire.CodeBadRequest, Msg: fmt.Sprintf("unexpected frame %s", typ)})
		return false
	}
}

// lease runs the lease logic — target/drain checks, overload control,
// fair-share rebalancing, then the engine call — filling resp. A nil
// error with no trials is a busy answer carrying RetryMS.
func (s *Server) lease(sess *session, eng Engine, n int, features []float64, resp *wire.PackedTrials) error {
	if s.target > 0 && eng.Iterations() >= s.target {
		resp.Done = true
		return nil
	}
	if s.draining.Load() {
		// Drain in progress: no new leases. Workers should report what
		// they hold, then back off (or reconnect elsewhere).
		resp.Draining = true
		resp.RetryMS = 100
		return nil
	}
	if n < 1 {
		n = 1
	}
	if n > s.maxBatch {
		n = s.maxBatch
	}
	// Overload control. The session cap bounds what one connection may
	// hoard; the global cap bounds total in-flight on this engine. Both
	// answer with an empty busy response whose RetryMS grows with load,
	// so backoff pressure rises before the engine's own hard limit
	// (core.ErrTooManyInFlight) is ever reached.
	held := len(sess.leased)
	if s.sessionCap > 0 && held >= s.sessionCap {
		sess.prune(eng)
		held = len(sess.leased)
	}
	inFlight := 0
	if s.sessionCap > 0 || s.globalCap > 0 {
		inFlight = eng.Stats().InFlight
	}
	if s.sessionCap > 0 && held+n > s.sessionCap {
		n = s.sessionCap - held
	}
	if s.globalCap > 0 && inFlight+n > s.globalCap {
		eng.ReclaimExpired()
		inFlight = eng.Stats().InFlight
		n = min(n, s.globalCap-inFlight)
	}
	// Server-push rebalancing: when this tenant has starving peers —
	// sessions whose lease requests the global cap answered empty —
	// clamp any session holding more than its fair share of the cap to
	// that share and advertise the share as SuggestMax, so the hoarder
	// shrinks its batches and freed capacity drains to the starved.
	if s.globalCap > 0 {
		if active := sess.rt.sessions.Load(); active > 1 && sess.rt.starved.Load() > 0 {
			fair := max(s.globalCap/int(active), 1)
			if held+n > fair {
				n = fair - held
				resp.SuggestMax = fair
				sess.rt.rebalanced.Add(1)
				sess.rt.starved.Add(-1)
			}
		}
	}
	if n <= 0 {
		capacity, load := s.globalCap, inFlight
		if capacity == 0 {
			// Blocked by the session cap alone: scale the hint by how
			// full this session is, not the whole server.
			capacity, load = s.sessionCap, held
		} else if resp.SuggestMax == 0 {
			// Starved by the global cap while peers hold leases: note it
			// so their next grants get clamped to the fair share.
			sess.rt.starved.Add(1)
		}
		resp.RetryMS = loadRetryMS(load, capacity)
		return nil
	}
	var trials []core.Trial
	var err error
	if ce, ok := eng.(contextualEngine); ok && len(features) > 0 {
		trials, err = ce.LeaseNFor(features, n)
	} else {
		trials, err = eng.LeaseN(n)
	}
	switch {
	case errors.Is(err, core.ErrTooManyInFlight):
		resp.RetryMS = loadRetryMS(eng.Stats().InFlight, s.globalCap)
	case err != nil:
		return err
	}
	for _, tr := range trials {
		sess.leased[tr.ID] = struct{}{}
		pt := wire.PackedTrial{
			ID:          tr.ID,
			Algo:        tr.Algo,
			Speculative: tr.Speculative,
			Pinned:      tr.Pinned,
			Config:      tr.Config,
		}
		if !tr.Deadline.IsZero() {
			pt.DeadlineMS = tr.Deadline.UnixMilli()
		}
		resp.Trials = append(resp.Trials, pt)
	}
	return nil
}

func (s *Server) serveLease(sess *session, eng Engine, corr uint16, req *wire.PackedLeaseReq) bool {
	resp := &sess.trials
	if !s.fillLease(sess, eng, corr, req.N, req.Features, resp) {
		return false
	}
	return sess.reply(wire.TTrialsP, corr, resp) == nil
}

// fillLease resets resp to an empty batch of the session's epoch and
// runs lease into it; on an engine error it replies with the error frame
// and reports false.
func (s *Server) fillLease(sess *session, eng Engine, corr uint16, n int, features []float64, resp *wire.PackedTrials) bool {
	*resp = wire.PackedTrials{Epoch: sess.rt.epoch, Trials: resp.Trials[:0]}
	if err := s.lease(sess, eng, n, features, resp); err != nil {
		sess.reply(wire.TError, corr, &wire.ErrorResp{Code: wire.CodeInternal, Msg: err.Error()})
		return false
	}
	return true
}

// serveComplete applies a completion batch. Reports from another epoch
// (leases issued by a dead server process, or by a different tenant,
// possibly colliding with re-issued trial IDs) are dropped wholesale —
// acknowledged, never applied. Tenant epochs are unique within a
// process, so a report carried across tenants always fails this check.
//
// A request that asks for the next trials (req.Next.N > 0) then gets
// them from lease, exactly as a TLeaseP arriving after this completion
// would, under the current epoch whatever the report's, and appended to
// the ack.
func (s *Server) serveComplete(sess *session, eng Engine, corr uint16, req *wire.PackedCompleteReq) bool {
	ack := sess.resetAck()
	if req.Epoch != sess.rt.epoch {
		for _, r := range req.Results {
			ack.Dropped = append(ack.Dropped, r.ID)
		}
	} else {
		factor := sess.rt.factorFor(req.Worker)
		results := sess.results[:0]
		for _, r := range req.Results {
			results = append(results, core.TrialResult{ID: r.ID, Value: r.Value / factor})
			delete(sess.leased, r.ID)
		}
		sess.results = results
		for i, err := range eng.CompleteN(results) {
			if err == nil {
				ack.Applied = append(ack.Applied, results[i].ID)
			} else {
				ack.Dropped = append(ack.Dropped, results[i].ID)
			}
		}
	}
	if req.Next.N > 0 {
		ack.HasNext = true
		if !s.fillLease(sess, eng, corr, req.Next.N, req.Next.Features, &ack.Next) {
			return false
		}
	}
	return sess.reply(wire.TAckP, corr, ack) == nil
}

// failKindOf maps a packed failure kind byte onto guard's taxonomy;
// FailOther and unknown bytes become Invalid.
func failKindOf(kind uint8) guard.Kind {
	switch kind {
	case wire.FailPanic:
		return guard.Panic
	case wire.FailTimeout:
		return guard.Timeout
	default:
		return guard.Invalid
	}
}

// serveFail applies a failure batch under the same epoch gate as
// serveComplete. Entries of kind wire.FailReleased hand back leases the
// client held but never measured; the engine takes them back unpenalized.
func (s *Server) serveFail(sess *session, eng Engine, corr uint16, req *wire.PackedFailReq) bool {
	ack := sess.resetAck()
	if req.Epoch != sess.rt.epoch {
		for _, f := range req.Fails {
			ack.Dropped = append(ack.Dropped, f.ID)
		}
		return sess.reply(wire.TAckP, corr, ack) == nil
	}
	fails := make([]core.TrialFailure, len(req.Fails))
	for i, f := range req.Fails {
		delete(sess.leased, f.ID)
		if f.Kind == wire.FailReleased {
			fails[i] = core.TrialFailure{ID: f.ID, Released: true}
			continue
		}
		fails[i] = core.TrialFailure{ID: f.ID, Failure: guard.Failure{
			Kind:    failKindOf(f.Kind),
			Err:     errors.New(f.Msg),
			Penalty: f.Penalty,
		}}
	}
	for i, err := range eng.FailN(fails) {
		if err == nil {
			ack.Applied = append(ack.Applied, fails[i].ID)
		} else {
			ack.Dropped = append(ack.Dropped, fails[i].ID)
		}
	}
	return sess.reply(wire.TAckP, corr, ack) == nil
}

func (s *Server) serveHeartbeat(sess *session, eng Engine, corr uint16, req *wire.HeartbeatReq) bool {
	var resp wire.HeartbeatResp
	if req.Epoch == sess.rt.epoch {
		for i, ok := range eng.Heartbeat(req.IDs) {
			if ok {
				resp.Alive = append(resp.Alive, req.IDs[i])
			}
		}
	}
	// Another epoch's leases are all dead here by definition: empty Alive.
	return sess.reply(wire.THeartbeatAck, corr, &resp) == nil
}

// serveAbsorb folds a degraded-mode worker's locally-learned delta into
// the tenant's engine, idempotently per (worker, seq): a retried request
// whose seq was already applied is acknowledged as a duplicate and
// dropped, so transport retries can never double-count an observation.
// Seqs must be strictly increasing per worker; the dedup check and the
// engine call happen under one lock so concurrent retries serialize.
func (s *Server) serveAbsorb(sess *session, eng Engine, corr uint16, req *wire.AbsorbReq) bool {
	rt := sess.rt
	var ack wire.AbsorbAck
	rt.absorbMu.Lock()
	last, seen := rt.absorbSeq[req.Worker]
	if seen && req.Seq <= last {
		ack.Duplicate = true
	} else {
		factor := rt.factorFor(req.Worker)
		obs := make([]nominal.Observation, len(req.Obs))
		for i, o := range req.Obs {
			v := o.Value
			if !o.Failed {
				// Failure penalties are policy constants, not measured
				// times — normalizing them would understate slow workers'
				// failures.
				v /= factor
			}
			obs[i] = nominal.Observation{Arm: o.Arm, Value: v, Failed: o.Failed}
		}
		ack.Applied = eng.Absorb(obs)
		rt.absorbSeq[req.Worker] = req.Seq
	}
	rt.absorbMu.Unlock()
	return sess.reply(wire.TAbsorbAck, corr, &ack) == nil
}

// serveCalibrate registers a worker's reference-probe time and answers
// with the speed factor now dividing that worker's reported costs. The
// baseline is the minimum reference across the tenant's fleet, so
// factors only ever normalize toward the fastest machine; re-calibrating
// (the worker probes periodically) tracks thermal or load changes, and a
// new fastest worker lowers the baseline, raising everyone else's factor
// on their next report. Calibration is per tenant: fleets serving
// different tenants may not even overlap.
func (s *Server) serveCalibrate(sess *session, corr uint16, req *wire.CalibrateReq) bool {
	rt := sess.rt
	if req.Worker == 0 || req.Ref <= 0 || math.IsInf(req.Ref, 0) || math.IsNaN(req.Ref) {
		sess.reply(wire.TError, corr, &wire.ErrorResp{
			Code: wire.CodeBadRequest, Msg: "calibrate needs a nonzero worker and a positive finite reference"})
		return false
	}
	rt.calMu.Lock()
	rt.refs[req.Worker] = req.Ref
	rt.baseline = 0
	for _, r := range rt.refs {
		if rt.baseline == 0 || r < rt.baseline {
			rt.baseline = r
		}
	}
	ack := wire.CalibrateAck{Factor: req.Ref / rt.baseline, Baseline: rt.baseline}
	rt.calMu.Unlock()
	return sess.reply(wire.TCalibrateAck, corr, &ack) == nil
}

// factorFor returns the speed factor dividing a worker's reported
// costs: 1 for the fleet-fastest, uncalibrated, or anonymous workers.
func (rt *tenantRT) factorFor(worker uint64) float64 {
	if worker == 0 {
		return 1
	}
	rt.calMu.Lock()
	defer rt.calMu.Unlock()
	ref, ok := rt.refs[worker]
	if !ok || rt.baseline <= 0 {
		return 1
	}
	return ref / rt.baseline
}

func (s *Server) serveBest(sess *session, eng Engine, corr uint16) bool {
	algo, cfg, val := eng.Best()
	resp := wire.BestResp{Algo: algo, Iterations: eng.Iterations()}
	if algo >= 0 {
		// Before any completion val is +Inf, which JSON cannot carry;
		// Algo == -1 already says "no best yet", so Value stays zero.
		resp.Name = eng.AlgorithmName(algo)
		resp.Config = cfg
		resp.Value = val
	}
	return sess.reply(wire.TBestAck, corr, &resp) == nil
}

func (s *Server) serveStats(sess *session, eng Engine, corr uint16) bool {
	st := eng.Stats()
	ds := eng.DriftStats()
	rt := sess.rt
	rt.calMu.Lock()
	calibrated := len(rt.refs)
	rt.calMu.Unlock()
	resp := wire.StatsResp{
		Leased:     st.Leased,
		Completed:  st.Completed,
		Failed:     st.Failed,
		Expired:    st.Expired,
		Released:   st.Released,
		InFlight:   st.InFlight,
		Absorbed:   st.Absorbed,
		Iterations: eng.Iterations(),
		Counts:     eng.Counts(),
		Degraded:   eng.Degraded(),

		DriftEvents:        ds.Events,
		DriftDecays:        ds.Decays,
		DriftReforks:       ds.Reforks,
		DriftStale:         ds.StaleDropped,
		DriftOutliers:      ds.Outliers,
		PendingProbes:      ds.PendingProbes,
		ProbesScheduled:    ds.ProbesScheduled,
		QuarantineReprobes: ds.QuarantineReprobes,

		Calibrated: calibrated,
		Rebalanced: sess.rt.rebalanced.Load(),
	}
	if ce, ok := eng.(contextualEngine); ok {
		resp.Contexts = ce.ContextCount()
	}
	return sess.reply(wire.TStatsAck, corr, &resp) == nil
}

// serveTenants answers the aggregate view: one row per registered
// tenant (resident or spilled; listing never forces a warm restart)
// plus fleet totals.
func (s *Server) serveTenants(sess *session, corr uint16) bool {
	var resp wire.TenantsResp
	for _, in := range s.reg.Snapshot() {
		resp.Tenants = append(resp.Tenants, wire.TenantStat{
			Name:       in.Name,
			Resident:   in.Resident,
			Epoch:      in.Epoch,
			Iterations: in.Iterations,
			InFlight:   in.InFlight,
			Completed:  in.Completed,
			BestAlgo:   in.BestAlgo,
			BestName:   in.BestName,
			BestValue:  in.BestValue,
			Spills:     in.Spills,
			Restarts:   in.Restarts,
		})
		if in.Resident {
			resp.Resident++
			resp.InFlight += in.InFlight
		}
		resp.Iterations += in.Iterations
	}
	return sess.reply(wire.TTenantsAck, corr, &resp) == nil
}
