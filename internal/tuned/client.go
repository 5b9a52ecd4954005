package tuned

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/nominal"
	"repro/internal/param"
	"repro/internal/wire"
)

// Client defaults.
const (
	DefaultPoolSize       = 4
	DefaultRequestTimeout = 5 * time.Second
	DefaultRetries        = 6
	DefaultBackoffBase    = 25 * time.Millisecond
	DefaultBackoffMax     = time.Second

	// DefaultPipelineWindow is the in-flight request window WithPipeline
	// uses when given a non-positive value. The server serves a
	// connection's requests one after another on its read loop and
	// answers in request order, so the window only bounds how many
	// requests may queue behind the one in service; 32 keeps the
	// connection busy while a reply is on its way back.
	DefaultPipelineWindow = 32
)

// ErrClosed is returned by requests on a closed client.
var ErrClosed = errors.New("tuned: client closed")

// errPipeTimeout fails a pipelined connection whose response did not
// arrive within the request timeout.
var errPipeTimeout = errors.New("tuned: pipelined request timed out")

// RemoteError is a request-level error the server answered explicitly
// (wire.ErrorResp). Config mismatches and bad requests are permanent:
// the client does not retry them.
type RemoteError struct {
	Code int
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("tuned: server error %d: %s", e.Code, e.Msg)
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithPoolSize bounds the number of idle pooled connections (default
// DefaultPoolSize). Concurrent requests beyond the pool dial extra
// connections that are closed instead of pooled when they return.
// Ignored while pipelining is on: a pipelined client multiplexes every
// request over one connection.
func WithPoolSize(n int) ClientOption {
	return func(c *Client) {
		if n > 0 {
			c.poolSize = n
		}
	}
}

// WithPipeline multiplexes all requests over a single connection with
// up to window of them in flight at once, matched to their responses by
// correlation ID, so a request no longer waits for its predecessor's
// round trip. window ≤ 0 means DefaultPipelineWindow.
func WithPipeline(window int) ClientOption {
	return func(c *Client) {
		if window <= 0 {
			window = DefaultPipelineWindow
		}
		c.pwindow = window
	}
}

// WithRequestTimeout sets the per-attempt deadline covering dial, send
// and receive (default DefaultRequestTimeout).
func WithRequestTimeout(d time.Duration) ClientOption {
	return func(c *Client) {
		if d > 0 {
			c.timeout = d
		}
	}
}

// WithRetry sets the reconnect policy: up to retries additional
// attempts per request. The sleep before attempt k is drawn uniformly
// from (0, min(base·2^(k-1), max)] — "full jitter", so N workers whose
// connections died together (a server restart, a healed partition) do
// not redial in lockstep. Requests are safe to retry by protocol
// design: completion is idempotent per trial ID, and a LeaseN whose
// response was lost only costs leases that expire on their deadlines.
// A CompleteN that leases ahead is retried whole, so one whose reply
// was lost costs the same: the trials that reply carried expire on
// their deadlines, and the retry leases ahead afresh.
func WithRetry(retries int, base, max time.Duration) ClientOption {
	return func(c *Client) {
		if retries >= 0 {
			c.retries = retries
		}
		if base > 0 {
			c.backoffBase = base
		}
		if max > 0 {
			c.backoffMax = max
		}
	}
}

// WithExpectedHash pins the config hash the server must present; zero
// (the default) accepts any server and pins its hash on first contact.
func WithExpectedHash(h uint32) ClientOption {
	return func(c *Client) { c.hash.Store(h) }
}

// WithClientName labels this client in the server's handshake (purely
// diagnostic).
func WithClientName(name string) ClientOption {
	return func(c *Client) { c.name = name }
}

// WithTenant routes this client's sessions to a named tenant of the
// server's registry. Empty (the default) is the "default" tenant — the
// behavior of every client that predates tenancy, and the only tenant a
// server over one engine (NewServer) has.
func WithTenant(name string) ClientOption {
	return func(c *Client) { c.tenant = name }
}

// WithWorker stamps completion reports with a worker identity, so the
// server can apply that worker's calibrated speed factor. Zero (the
// default) reports anonymously with factor 1.
func WithWorker(id uint64) ClientOption {
	return func(c *Client) { c.worker = id }
}

// WithFeatures sets the client's sticky feature vector: LeaseN attaches
// it to every lease request, so a contextual server routes this
// client's trials to the matching per-context selector (completions
// route by trial ID — no echo needed). Nil (the default) leaves
// requests feature-less — the global context. Servers without
// contextual routing ignore the field entirely.
func WithFeatures(f []float64) ClientOption {
	return func(c *Client) { c.feats = append([]float64(nil), f...) }
}

// WithDialer replaces the TCP dialer, letting tests and soak runs route
// connections through a fault-injection layer (chaos.Network.DialTimeout
// has this exact signature).
func WithDialer(dial func(network, addr string, timeout time.Duration) (net.Conn, error)) ClientOption {
	return func(c *Client) {
		if dial != nil {
			c.dialFn = dial
		}
	}
}

// Client is a client of one tuning server. It is safe for concurrent
// use; every method retries transient transport failures with
// exponential backoff and fresh connections, so a server restart within
// the retry budget is invisible to callers except through the changed
// epoch.
//
// By default each request occupies one pooled connection for its full
// round trip. With WithPipeline, all requests share one connection and
// overlap on the wire — the mode the hot path (LeaseN/CompleteN/FailN)
// is designed for.
type Client struct {
	addr   string
	name   string
	tenant string

	poolSize    int
	pwindow     int // 0 = lockstep pool; >0 = pipelined window
	timeout     time.Duration
	retries     int
	backoffBase time.Duration
	backoffMax  time.Duration
	dialFn      func(network, addr string, timeout time.Duration) (net.Conn, error)

	pool    chan *clientConn
	pmu     sync.Mutex    // guards pconn
	pconn   *clientConn   // the shared pipelined connection
	hash    atomic.Uint32 // expected/pinned config hash (0 = unpinned)
	epoch   atomic.Int64  // most recent epoch seen in a handshake
	algos   atomic.Pointer[[]string]
	ttlMS   atomic.Int64
	refAlgo atomic.Int64 // calibration reference algorithm (handshake)
	closed  atomic.Bool

	worker uint64       // identity stamped into reports (WithWorker)
	feats  []float64    // sticky lease feature vector (WithFeatures)
	want   atomic.Int64 // n of the last LeaseN; 0 after a LeaseNFor

	// hmu guards the trials completions leased ahead (see completeN):
	// at most one batch per feature vector, held until a lease under
	// that vector takes it or relTimer hands it back at its releaseAt.
	// armedAt is when relTimer fires (zero: not armed). noHold is set
	// by Close.
	hmu      sync.Mutex
	held     []heldBatch
	relTimer *time.Timer
	armedAt  time.Time
	noHold   bool
}

// heldBatch is a batch of trials a completion leased ahead, or, while
// pending, the place reserved for the batch that completion asked for.
// feats is the client's or a session's immutable vector.
type heldBatch struct {
	feats   []float64
	pending bool
	trials  []core.Trial
	epoch   int64
	// releaseAt is half-way from the batch's arrival to its earliest
	// lease deadline (zero: no deadline). From then on the batch is no
	// longer handed out but handed back, so the server never reclaims
	// an unmeasured trial as a timeout, and a trial handed out has at
	// least half its lease left to be measured in.
	releaseAt time.Time
	suggest   int
}

// clientConn is one connection with its handshake result.
type clientConn struct {
	conn  net.Conn
	br    *bufio.Reader
	rbuf  []byte // frame read buffer, reused across lockstep requests
	epoch int64
	pipe  *pipe // non-nil on the shared pipelined connection
}

// Dial connects to a tuning server, performing an eager handshake so a
// config mismatch or dead address fails construction rather than the
// first request.
func Dial(addr string, opts ...ClientOption) (*Client, error) {
	c := &Client{
		addr:        addr,
		poolSize:    DefaultPoolSize,
		timeout:     DefaultRequestTimeout,
		retries:     DefaultRetries,
		backoffBase: DefaultBackoffBase,
		backoffMax:  DefaultBackoffMax,
		dialFn:      net.DialTimeout,
	}
	for _, o := range opts {
		o(c)
	}
	c.pool = make(chan *clientConn, c.poolSize)
	cc, err := c.dial()
	if err != nil {
		return nil, err
	}
	if c.pipelined() {
		cc.pipe = newPipe(cc, c.pwindow)
		c.pconn = cc
	} else {
		c.put(cc)
	}
	return c, nil
}

// dial opens and handshakes one connection.
func (c *Client) dial() (*clientConn, error) {
	conn, err := c.dialFn("tcp", c.addr, c.timeout)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(c.timeout))
	defer conn.SetDeadline(time.Time{})
	br := bufio.NewReaderSize(conn, 64<<10)
	hello := wire.Hello{Proto: wire.Version, Hash: c.hash.Load(), Name: c.name, Tenant: c.tenant}
	if err := wire.WriteMsg(conn, wire.THello, &hello); err != nil {
		conn.Close()
		return nil, err
	}
	typ, payload, err := wire.ReadFrame(br)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if typ == wire.TError {
		defer conn.Close()
		var e wire.ErrorResp
		if err := e.DecodeFrom(payload); err != nil {
			return nil, err
		}
		return nil, &RemoteError{Code: e.Code, Msg: e.Msg}
	}
	if typ != wire.THelloAck {
		conn.Close()
		return nil, fmt.Errorf("tuned: handshake answered with %s", typ)
	}
	var ack wire.HelloAck
	if err := ack.DecodeFrom(payload); err != nil {
		conn.Close()
		return nil, err
	}
	// A server that accepted the Hello but speaks another version is
	// refused as permanently as a config mismatch: its frames would be
	// misread.
	if ack.Proto != wire.Version {
		conn.Close()
		return nil, &RemoteError{Code: wire.CodeBadRequest,
			Msg: fmt.Sprintf("server speaks protocol %d, client speaks %d", ack.Proto, wire.Version)}
	}
	// Pin the hash on first contact; a later server presenting another
	// hash is a different run and must be refused, not silently joined.
	if !c.hash.CompareAndSwap(0, ack.Hash) && c.hash.Load() != ack.Hash {
		conn.Close()
		return nil, &RemoteError{Code: wire.CodeConfigMismatch,
			Msg: fmt.Sprintf("server now runs config %08x, client pinned %08x", ack.Hash, c.hash.Load())}
	}
	algos := append([]string(nil), ack.Algos...)
	c.algos.Store(&algos)
	c.epoch.Store(ack.Epoch)
	c.ttlMS.Store(ack.LeaseTTLMS)
	c.refAlgo.Store(int64(ack.RefAlgo))
	return &clientConn{conn: conn, br: br, epoch: ack.Epoch}, nil
}

// pipelined reports whether requests go through the shared pipelined
// connection (WithPipeline).
func (c *Client) pipelined() bool { return c.pwindow > 0 }

// get returns a pooled connection or dials a new one.
func (c *Client) get() (*clientConn, error) {
	select {
	case cc := <-c.pool:
		return cc, nil
	default:
		return c.dial()
	}
}

// put returns a connection to the pool, closing it when the pool is
// full.
func (c *Client) put(cc *clientConn) {
	if c.closed.Load() {
		cc.conn.Close()
		return
	}
	select {
	case c.pool <- cc:
	default:
		cc.conn.Close()
	}
}

// Close closes the client, its pooled connections, and the pipelined
// connection if any. In-flight requests on borrowed connections finish;
// their connections are closed on return. Trials that completions
// leased ahead and no LeaseN took go back to the server first, in one
// FailN of wire.FailReleased entries and a single attempt: the engine
// takes them back unpenalized instead of charging them as timeouts when
// their leases expire. That attempt may block Close for up to one
// request timeout (WithRequestTimeout) when the server is unreachable;
// the leases then expire on their deadlines.
func (c *Client) Close() error {
	if c.closed.Load() {
		return nil
	}
	c.releaseHeld(nil, true)
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	c.pmu.Lock()
	if c.pconn != nil {
		c.pconn.pipe.fail(ErrClosed)
		c.pconn = nil
	}
	c.pmu.Unlock()
	for {
		select {
		case cc := <-c.pool:
			cc.conn.Close()
		default:
			return nil
		}
	}
}

// Epoch returns the session epoch from the most recent handshake. A
// change between two calls means the server restarted in between.
func (c *Client) Epoch() int64 { return c.epoch.Load() }

// Algos returns the server's algorithm roster (index = algorithm index
// in leased trials).
func (c *Client) Algos() []string {
	p := c.algos.Load()
	if p == nil {
		return nil
	}
	return append([]string(nil), (*p)...)
}

// LeaseTTL returns the server's lease deadline duration (zero when
// expiry is disabled); workers should heartbeat well inside it.
func (c *Client) LeaseTTL() time.Duration {
	return time.Duration(c.ttlMS.Load()) * time.Millisecond
}

// RefAlgo returns the server's calibration reference algorithm index
// from the most recent handshake.
func (c *Client) RefAlgo() int { return int(c.refAlgo.Load()) }

// Session is an immutable per-worker view of a Client: a worker
// identity and a feature vector fixed at construction, sharing the
// client's connections, retry policy and handshake state, so workers
// sharing one client each report under their own identity.
type Session struct {
	c      *Client
	worker uint64
	feats  []float64
	want   atomic.Int64 // n of the session's last LeaseN
}

// SessionOption configures a Session at construction.
type SessionOption func(*Session)

// SessionWorker sets the worker identity stamped into the session's
// completion reports.
func SessionWorker(id uint64) SessionOption {
	return func(s *Session) { s.worker = id }
}

// SessionFeatures sets the feature vector attached to the session's
// lease requests (nil = the global context).
func SessionFeatures(f []float64) SessionOption {
	return func(s *Session) { s.feats = append([]float64(nil), f...) }
}

// Session derives an immutable per-worker handle. Options left unset
// inherit the client's WithWorker identity and WithFeatures vector.
func (c *Client) Session(opts ...SessionOption) *Session {
	s := &Session{c: c, worker: c.worker, feats: c.feats}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Client returns the client this session is a view of.
func (s *Session) Client() *Client { return s.c }

// Worker returns the session's worker identity.
func (s *Session) Worker() uint64 { return s.worker }

// Features returns a copy of the session's feature vector (nil when
// unset).
func (s *Session) Features() []float64 {
	return append([]float64(nil), s.feats...)
}

// LeaseN leases up to n trials under the session's feature vector,
// taking them from a batch the client holds for that vector when it
// has one; see Client.LeaseN.
func (s *Session) LeaseN(n int) (LeaseBatch, error) {
	s.want.Store(int64(n))
	return s.c.leaseN(s.feats, n)
}

// CompleteN reports measured values under the session's worker
// identity and leases the next trials ahead under the session's feature
// vector; see Client.CompleteN.
func (s *Session) CompleteN(epoch int64, results []core.TrialResult) (applied, dropped []uint64, err error) {
	return s.c.completeN(s.worker, s.feats, int(s.want.Load()), epoch, results)
}

// FailN reports measurement failures; see Client.FailN.
func (s *Session) FailN(epoch int64, fails []core.TrialFailure) (applied, dropped []uint64, err error) {
	return s.c.FailN(epoch, fails)
}

// Heartbeat extends the session's leases; see Client.Heartbeat.
func (s *Session) Heartbeat(epoch int64, ids []uint64) ([]uint64, error) {
	return s.c.Heartbeat(epoch, ids)
}

// roundTrip sends one request and reads its response, retrying
// transport failures on fresh connections with full-jitter exponential
// backoff. Server-side errors (wire.TError) are permanent and returned
// as *RemoteError without retry.
func (c *Client) roundTrip(reqType wire.Type, req wire.Payload, respType wire.Type, resp wire.Payload) error {
	return c.roundTripRetries(c.retries, reqType, req, respType, resp)
}

// roundTripRetries is roundTrip with an explicit retry budget; the
// degraded worker probes reconnection with a budget of zero.
func (c *Client) roundTripRetries(retries int, reqType wire.Type, req wire.Payload, respType wire.Type, resp wire.Payload) error {
	var lastErr error
	backoff := c.backoffBase
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			// Full jitter: sleep a uniform fraction of the doubling
			// ceiling rather than the ceiling itself, so a herd of
			// workers reconnecting after one outage spreads out instead
			// of hammering the server in lockstep.
			time.Sleep(time.Duration(rand.Int63n(int64(backoff))) + 1)
			backoff *= 2
			if backoff > c.backoffMax {
				backoff = c.backoffMax
			}
		}
		if c.closed.Load() {
			return ErrClosed
		}
		var err error
		if c.pipelined() {
			err = c.pipeDo(reqType, req, respType, resp)
		} else {
			err = c.poolDo(reqType, req, respType, resp)
		}
		if err == nil {
			return nil
		}
		var re *RemoteError
		if errors.As(err, &re) {
			return err
		}
		if errors.Is(err, ErrClosed) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("tuned: %s to %s failed after %d attempts: %w", reqType, c.addr, retries+1, lastErr)
}

// poolDo runs one lockstep exchange on a pooled connection.
func (c *Client) poolDo(reqType wire.Type, req wire.Payload, respType wire.Type, resp wire.Payload) error {
	cc, err := c.get()
	if err != nil {
		return err
	}
	err = c.attempt(cc, reqType, req, respType, resp)
	if err == nil {
		c.put(cc)
		return nil
	}
	cc.conn.Close()
	return err
}

// attempt performs one request/response exchange on one connection.
// It sets the attempt's deadline before any I/O and leaves it in place:
// an idle pooled connection is never read, and the next attempt on it
// sets a fresh deadline first.
func (c *Client) attempt(cc *clientConn, reqType wire.Type, req wire.Payload, respType wire.Type, resp wire.Payload) error {
	cc.conn.SetDeadline(time.Now().Add(c.timeout))
	if err := wire.WriteFrame(cc.conn, wire.Version, reqType, 0, req); err != nil {
		return err
	}
	typ, _, payload, rbuf, err := wire.ReadFrameBuf(cc.br, cc.rbuf)
	cc.rbuf = rbuf
	if err != nil {
		return err
	}
	return decodeResp(typ, payload, respType, resp)
}

// decodeResp interprets one response frame against the expected type,
// turning TError answers into *RemoteError.
func decodeResp(typ wire.Type, payload []byte, respType wire.Type, resp wire.Payload) error {
	if typ == wire.TError {
		var e wire.ErrorResp
		if err := e.DecodeFrom(payload); err != nil {
			return err
		}
		return &RemoteError{Code: e.Code, Msg: e.Msg}
	}
	if typ != respType {
		return fmt.Errorf("tuned: answered with %s, want %s", typ, respType)
	}
	if resp == nil {
		return nil
	}
	return resp.DecodeFrom(payload)
}

// pipeDo runs one exchange over the shared pipelined connection,
// dropping the connection on transport failure so the next attempt
// redials.
func (c *Client) pipeDo(reqType wire.Type, req wire.Payload, respType wire.Type, resp wire.Payload) error {
	p, err := c.getPipe()
	if err != nil {
		return err
	}
	err = p.do(c.timeout, reqType, req, respType, resp)
	if err != nil {
		var re *RemoteError
		if !errors.As(err, &re) {
			c.dropPipe(p)
		}
	}
	return err
}

// getPipe returns the live pipelined connection, dialing one when none
// exists or the previous one failed.
func (c *Client) getPipe() (*pipe, error) {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if c.pconn != nil && c.pconn.pipe.alive() {
		return c.pconn.pipe, nil
	}
	cc, err := c.dial()
	if err != nil {
		return nil, err
	}
	cc.pipe = newPipe(cc, c.pwindow)
	c.pconn = cc
	return cc.pipe, nil
}

// dropPipe discards a failed pipelined connection (unless a concurrent
// request already replaced it).
func (c *Client) dropPipe(p *pipe) {
	c.pmu.Lock()
	if c.pconn != nil && c.pconn.pipe == p {
		c.pconn = nil
	}
	c.pmu.Unlock()
	p.fail(errors.New("tuned: pipelined connection dropped"))
}

// pipe multiplexes concurrent requests over one connection. Each
// request takes a window slot, registers its response struct under a
// fresh correlation ID, writes its frame, and waits; a single reader
// goroutine decodes responses straight into the registered structs in
// whatever order the server answers. Any transport error fails every
// in-flight request at once — the callers' retry loops redial.
type pipe struct {
	cc     *clientConn
	window chan struct{}

	wmu   sync.Mutex    // serializes frame writes
	bw    *bufio.Writer // request buffer over the connection
	wpend atomic.Int32  // writers committed to entering wmu

	mu      sync.Mutex
	corr    uint16
	pending map[uint16]*pcall
	err     error // sticky; set once by fail

	done chan struct{} // closed by fail
}

// pcall is one in-flight pipelined request. Calls are pooled: a call
// goes back to pcallPool only after a successful reply, when its
// channel is empty and no one else holds it. A call that timed out or
// failed is dropped, so no late result can reach a later request.
type pcall struct {
	respType wire.Type
	resp     wire.Payload
	ch       chan error  // buffered; receives exactly one result per request
	timer    *time.Timer // the request timeout; nil until first use
}

var pcallPool = sync.Pool{New: func() any { return &pcall{ch: make(chan error, 1)} }}

func newPipe(cc *clientConn, window int) *pipe {
	p := &pipe{
		cc:      cc,
		window:  make(chan struct{}, window),
		bw:      bufio.NewWriterSize(cc.conn, 64<<10),
		pending: make(map[uint16]*pcall),
		done:    make(chan struct{}),
	}
	go p.readLoop()
	return p
}

// alive reports whether the pipe can still take requests.
func (p *pipe) alive() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err == nil
}

// do runs one exchange: slot, register, write, wait.
func (p *pipe) do(timeout time.Duration, reqType wire.Type, req wire.Payload, respType wire.Type, resp wire.Payload) error {
	select {
	case p.window <- struct{}{}:
	case <-p.done:
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.err
	}
	defer func() { <-p.window }()

	p.mu.Lock()
	if p.err != nil {
		err := p.err
		p.mu.Unlock()
		return err
	}
	call := pcallPool.Get().(*pcall)
	call.respType, call.resp = respType, resp
	// Correlation IDs cycle through 1..65535; 0 stays reserved for
	// unsolicited frames. The window is far smaller than the ID space,
	// so a live ID can never be reissued before its response lands.
	p.corr++
	if p.corr == 0 {
		p.corr = 1
	}
	corr := p.corr
	p.pending[corr] = call
	p.mu.Unlock()

	// Coalesced write: frames buffer under the mutex and flush only
	// when no other writer is committed to entering it, so overlapping
	// requests (a report racing the next lease) share one syscall.
	p.wpend.Add(1)
	p.wmu.Lock()
	p.cc.conn.SetWriteDeadline(time.Now().Add(timeout))
	err := wire.WriteFrame(p.bw, wire.Version, reqType, corr, req)
	if p.wpend.Add(-1) <= 0 {
		if ferr := p.bw.Flush(); err == nil {
			err = ferr
		}
	}
	p.wmu.Unlock()
	if err != nil {
		p.abandon(call, err)
		return err
	}

	if call.timer == nil {
		call.timer = time.NewTimer(timeout)
	} else {
		call.timer.Reset(timeout)
	}
	select {
	case err := <-call.ch:
		if !call.timer.Stop() {
			// The timer fired as the reply landed. Under go 1.22 timer
			// semantics its tick may still be on its way to C, so no
			// non-blocking drain proves the channel empty: the call's
			// next request starts a new timer instead.
			call.timer = nil
		}
		call.resp = nil
		if err == nil {
			pcallPool.Put(call)
		}
		return err
	case <-call.timer.C:
		// Failing the whole pipe on one timeout is deliberate: responses
		// arrive in server order, so a stuck request means everything
		// behind it is stuck too.
		p.abandon(call, errPipeTimeout)
		return errPipeTimeout
	}
}

// abandon fails the pipe on behalf of a registered call that will not
// wait for its reply, then takes the call's one result: the reader's,
// if it had already claimed the reply and was decoding it, or fail's
// error. Either arrives at once, and after it nothing writes to the
// call's decode target, so the caller may reuse that target on its
// next attempt. The call itself is dropped, not pooled.
func (p *pipe) abandon(call *pcall, err error) {
	p.fail(err)
	<-call.ch
}

// readLoop decodes responses into their registered structs until the
// connection dies.
func (p *pipe) readLoop() {
	var buf []byte
	for {
		typ, corr, payload, nbuf, err := wire.ReadFrameBuf(p.cc.br, buf)
		if err != nil {
			p.fail(err)
			return
		}
		buf = nbuf
		p.mu.Lock()
		call := p.pending[corr]
		delete(p.pending, corr)
		p.mu.Unlock()
		if call == nil {
			p.fail(fmt.Errorf("tuned: response with unknown correlation ID %d", corr))
			return
		}
		// Decode on this goroutine: payload aliases the reused frame
		// buffer and must not outlive this iteration.
		call.ch <- decodeResp(typ, payload, call.respType, call.resp)
	}
}

// fail closes the connection and delivers err to every in-flight
// request. Idempotent; only the first error sticks.
func (p *pipe) fail(err error) {
	p.mu.Lock()
	if p.err != nil {
		p.mu.Unlock()
		return
	}
	p.err = err
	calls := p.pending
	p.pending = make(map[uint16]*pcall)
	close(p.done)
	p.mu.Unlock()
	p.cc.conn.Close()
	for _, call := range calls {
		call.ch <- err
	}
}

// LeaseBatch is the result of one LeaseN call. Epoch stamps the server
// process that issued the trials and must be echoed when they are
// completed or failed. The caller owns Trials and every Config in it:
// later LeaseN calls never write to them. A batch's Configs share one
// backing array, each capped at its own length; a batch handed out from
// held trials may share it with the held remainder, which no caller
// writes either.
type LeaseBatch struct {
	Trials   []core.Trial
	Epoch    int64
	Done     bool
	Retry    time.Duration // backoff hint when Trials is empty
	Draining bool          // the server is shutting down gracefully
	// SuggestMax, when nonzero, is the server's advisory batch ceiling:
	// peers are starving behind this session's holdings, and capping
	// the next lease request at this size restores fairness sooner than
	// waiting for the server to clamp it.
	SuggestMax int
}

// LeaseN leases up to n trials under the sticky feature vector (if
// any), so a contextual server can route the lease. When the client
// holds trials a completion leased ahead under the same vector (see
// CompleteN), it hands out up to n of them without a round trip, as
// long as they carry the current handshake epoch and less than half of
// their lease time has passed. Held trials of another epoch are
// discarded, and older ones are handed back to the server. Otherwise
// LeaseN leases in one round trip.
func (c *Client) LeaseN(n int) (LeaseBatch, error) {
	c.want.Store(int64(n))
	return c.leaseN(c.feats, n)
}

// LeaseNFor is LeaseN under an explicit feature vector, overriding the
// sticky one for this call. Nil features ask for the global context.
// Held trials are handed out only to the vector they were leased under,
// and Client.CompleteN leases ahead only after a LeaseN, never for a
// LeaseNFor's vector.
func (c *Client) LeaseNFor(features []float64, n int) (LeaseBatch, error) {
	c.want.Store(0)
	return c.leaseN(features, n)
}

// trialBufs holds the request structs and decode targets of one trial
// request. LeaseN and CompleteN take one from trialBufPool, encode from
// it and decode into it, copy the answer out to memory the caller owns,
// and put it back, so steady-state requests grow no decode buffers.
type trialBufs struct {
	lease    wire.PackedLeaseReq
	trials   wire.PackedTrials
	complete wire.PackedCompleteReq
	ack      wire.PackedAck
}

var trialBufPool = sync.Pool{New: func() any { return new(trialBufs) }}

// leaseN is the lease path shared by Client and Session.
func (c *Client) leaseN(features []float64, n int) (LeaseBatch, error) {
	lb, ok, due := c.takeHeld(features, n)
	if ok {
		return lb, nil
	}
	if len(due.trials) > 0 {
		c.sendRelease(due.epoch, due.trials)
	}
	b := trialBufPool.Get().(*trialBufs)
	defer trialBufPool.Put(b)
	b.lease = wire.PackedLeaseReq{N: n, Features: features}
	err := c.roundTrip(wire.TLeaseP, &b.lease, wire.TTrialsP, &b.trials)
	b.lease.Features = nil // the caller's slice: do not keep it pooled
	if err != nil {
		return LeaseBatch{}, err
	}
	resp := &b.trials
	return LeaseBatch{
		Trials:     ownTrials(resp.Trials),
		Epoch:      resp.Epoch,
		Done:       resp.Done,
		Draining:   resp.Draining,
		Retry:      time.Duration(resp.RetryMS) * time.Millisecond,
		SuggestMax: resp.SuggestMax,
	}, nil
}

// ownTrials copies a decoded batch out of its reused decode target: one
// []core.Trial, and one arena behind every Config, each Config capped at
// its length so appending to it cannot overwrite its neighbour's.
func ownTrials(pts []wire.PackedTrial) []core.Trial {
	if len(pts) == 0 {
		return nil
	}
	nc := 0
	for i := range pts {
		nc += len(pts[i].Config)
	}
	var arena []float64
	if nc > 0 {
		arena = make([]float64, 0, nc)
	}
	out := make([]core.Trial, len(pts))
	for i := range pts {
		pt := &pts[i]
		tr := &out[i]
		tr.ID, tr.Algo, tr.Speculative, tr.Pinned = pt.ID, pt.Algo, pt.Speculative, pt.Pinned
		if len(pt.Config) > 0 {
			start := len(arena)
			arena = append(arena, pt.Config...)
			tr.Config = param.Config(arena[start:len(arena):len(arena)])
		}
		if pt.DeadlineMS != 0 {
			tr.Deadline = time.UnixMilli(pt.DeadlineMS)
		}
	}
	return out
}

// ownIDs copies an ack's ID lists out of its reused decode target in
// one allocation: applied and dropped share its backing array, each
// capped at its own length. An empty list is nil.
func ownIDs(ack *wire.PackedAck) (applied, dropped []uint64) {
	na, nd := len(ack.Applied), len(ack.Dropped)
	if na+nd == 0 {
		return nil, nil
	}
	ids := make([]uint64, na+nd)
	copy(ids, ack.Applied)
	copy(ids[na:], ack.Dropped)
	if na > 0 {
		applied = ids[:na:na]
	}
	if nd > 0 {
		dropped = ids[na:]
	}
	return applied, dropped
}

// CompleteN reports a batch of measured values for trials leased under
// epoch, returning the trial IDs applied and dropped. Dropped IDs are
// not failures: the engine had already charged those trials (expired
// lease, duplicate report, or older epoch). The caller owns both
// slices; they may share one backing array, each capped at its own
// length, so appending to one never overwrites the other. CompleteN
// keeps no reference to results.
//
// When the last lease was a LeaseN and the client holds no trials
// ahead for the sticky feature vector, the same request also leases
// trials under that vector, after the results are applied: as many as
// it reports, or as many as the last LeaseN asked for if that is more,
// so a batch handed out in parts at the end of a quota does not shrink
// every batch after it. The client holds them for the next LeaseN, so a
// lockstep worker pays one round trip per batch, not two. Held trials
// that no LeaseN takes go back to the server unpenalized: at Close, or
// once half their lease time has passed, so a caller that pauses
// between batches longer than that costs one extra round trip, never a
// timeout failure.
func (c *Client) CompleteN(epoch int64, results []core.TrialResult) (applied, dropped []uint64, err error) {
	return c.completeN(c.worker, c.feats, int(c.want.Load()), epoch, results)
}

// completeN is the completion path shared by Client and Session; want is
// the caller's last LeaseN size, and 0 leases nothing ahead.
func (c *Client) completeN(worker uint64, feats []float64, want int, epoch int64, results []core.TrialResult) (applied, dropped []uint64, err error) {
	// No feature vector on results: a contextual server routes
	// completions by trial ID through its route table. feats travels
	// only with the lease request.
	b := trialBufPool.Get().(*trialBufs)
	defer trialBufPool.Put(b)
	req := &b.complete
	req.Epoch, req.Worker, req.Results = epoch, worker, req.Results[:0]
	for _, r := range results {
		req.Results = append(req.Results, wire.PackedResult{ID: r.ID, Value: r.Value})
	}
	req.Next = wire.PackedLeaseReq{N: c.reserveHeld(feats, len(results), want), Features: feats}
	err = c.roundTrip(wire.TCompleteP, req, wire.TAckP, &b.ack)
	req.Next.Features = nil // the caller's slice: do not keep it pooled
	if req.Next.N > 0 {
		c.fillHeld(feats, &b.ack, err == nil)
	}
	if err != nil {
		return nil, nil, err
	}
	applied, dropped = ownIDs(&b.ack)
	return applied, dropped, nil
}

// heldFor returns the index of the batch held or reserved for feats, or
// -1. The caller holds hmu.
func (c *Client) heldFor(feats []float64) int {
	for i := range c.held {
		if slices.Equal(c.held[i].feats, feats) {
			return i
		}
	}
	return -1
}

// reserveHeld returns how many trials a completion reporting n results
// under feats, from a caller whose last LeaseN asked for want, should
// lease ahead: the larger of n and want when the client holds none for
// feats and no other completion is asking for them, reserving the
// place; 0 otherwise, and always for a completion reporting nothing or
// a want of 0.
func (c *Client) reserveHeld(feats []float64, n, want int) int {
	if n == 0 || want <= 0 {
		return 0
	}
	c.hmu.Lock()
	defer c.hmu.Unlock()
	if c.noHold || c.heldFor(feats) >= 0 {
		return 0
	}
	c.held = append(c.held, heldBatch{feats: feats, pending: true})
	return max(n, want)
}

// fillHeld stores the trials a completion leased ahead for feats in the
// place reserveHeld made, or frees the place when the request failed or
// brought none. The trials are the slice ownTrials returns, handed out
// later without another copy. Trials arriving after Close began go
// straight back to the server.
func (c *Client) fillHeld(feats []float64, ack *wire.PackedAck, ok bool) {
	var hb heldBatch
	if ok && ack.HasNext {
		hb = heldBatch{feats: feats, trials: ownTrials(ack.Next.Trials), epoch: ack.Next.Epoch, suggest: ack.Next.SuggestMax}
		var deadline time.Time
		for _, tr := range hb.trials {
			if !tr.Deadline.IsZero() && (deadline.IsZero() || tr.Deadline.Before(deadline)) {
				deadline = tr.Deadline
			}
		}
		if !deadline.IsZero() {
			now := time.Now()
			hb.releaseAt = now.Add(deadline.Sub(now) / 2)
		}
	}
	c.hmu.Lock()
	i := c.heldFor(feats)
	if len(hb.trials) > 0 && !c.noHold {
		c.held[i] = hb
		c.armLocked(hb.releaseAt)
		c.hmu.Unlock()
		return
	}
	c.held = slices.Delete(c.held, i, i+1)
	stopped := c.noHold
	c.hmu.Unlock()
	if stopped && len(hb.trials) > 0 {
		c.sendRelease(hb.epoch, hb.trials)
	}
}

// takeHeld hands out up to n (at least 1) of the trials held for
// features, if they carry the current handshake epoch and their
// releaseAt has not passed. A batch of another epoch is discarded (a
// dead epoch's trials are not the new server's to take back); a batch
// past its releaseAt is removed and returned as due, for the caller to
// hand back.
func (c *Client) takeHeld(features []float64, n int) (lb LeaseBatch, ok bool, due heldBatch) {
	c.hmu.Lock()
	defer c.hmu.Unlock()
	if len(c.held) == 0 {
		return LeaseBatch{}, false, due
	}
	i := c.heldFor(features)
	if i < 0 || c.held[i].pending {
		return LeaseBatch{}, false, due
	}
	hb := &c.held[i]
	if hb.epoch != c.epoch.Load() || (!hb.releaseAt.IsZero() && !time.Now().Before(hb.releaseAt)) {
		if hb.epoch == c.epoch.Load() {
			due = *hb
		}
		c.held = slices.Delete(c.held, i, i+1)
		return LeaseBatch{}, false, due
	}
	k := min(max(n, 1), len(hb.trials))
	lb = LeaseBatch{Trials: hb.trials[:k:k], Epoch: hb.epoch, SuggestMax: hb.suggest}
	if k == len(hb.trials) {
		c.held = slices.Delete(c.held, i, i+1)
	} else {
		hb.trials = hb.trials[k:]
	}
	return lb, true, due
}

// armLocked makes relTimer fire by at, when at is set and the timer is
// not already due to fire earlier. The caller holds hmu. In a lockstep
// loop each batch is taken before its releaseAt, so the timer fires
// about once per half lease TTL and finds nothing due.
func (c *Client) armLocked(at time.Time) {
	if at.IsZero() || (!c.armedAt.IsZero() && !at.Before(c.armedAt)) {
		return
	}
	c.armedAt = at
	if c.relTimer == nil {
		c.relTimer = time.AfterFunc(time.Until(at), c.releaseDue)
	} else {
		c.relTimer.Reset(time.Until(at))
	}
}

// releaseDue hands back every held batch whose releaseAt has passed and
// re-arms relTimer for the earliest one left.
func (c *Client) releaseDue() {
	c.hmu.Lock()
	c.armedAt = time.Time{}
	if c.noHold {
		c.hmu.Unlock()
		return
	}
	now, epoch := time.Now(), c.epoch.Load()
	var trials []core.Trial
	var next time.Time
	kept := c.held[:0]
	for _, hb := range c.held {
		if !hb.pending && !hb.releaseAt.IsZero() && !now.Before(hb.releaseAt) {
			if hb.epoch == epoch {
				trials = append(trials, hb.trials...)
			}
			continue
		}
		kept = append(kept, hb)
		if !hb.releaseAt.IsZero() && (next.IsZero() || hb.releaseAt.Before(next)) {
			next = hb.releaseAt
		}
	}
	clear(c.held[len(kept):])
	c.held = kept
	c.armLocked(next)
	c.hmu.Unlock()
	c.sendRelease(epoch, trials)
}

// releaseHeld hands back to the server the trials held for feats, or
// every held batch with all set, which also stops completions from
// leasing ahead (Close). Batches of another epoch than the current
// handshake's are discarded. A tuned.Worker releases its vector's batch
// when it stops on MaxTrials or Done.
func (c *Client) releaseHeld(feats []float64, all bool) {
	c.hmu.Lock()
	if all {
		c.noHold = true
		if c.relTimer != nil {
			c.relTimer.Stop()
		}
	}
	epoch := c.epoch.Load()
	var trials []core.Trial
	kept := c.held[:0]
	for _, hb := range c.held {
		if hb.pending || !(all || slices.Equal(hb.feats, feats)) {
			kept = append(kept, hb)
			continue
		}
		if hb.epoch == epoch {
			trials = append(trials, hb.trials...)
		}
	}
	clear(c.held[len(kept):])
	c.held = kept
	c.hmu.Unlock()
	c.sendRelease(epoch, trials)
}

// sendRelease hands trials back to the server in one FailN of
// wire.FailReleased entries, in a single attempt: if it fails, the
// leases expire as any abandoned lease does.
func (c *Client) sendRelease(epoch int64, trials []core.Trial) {
	if len(trials) == 0 {
		return
	}
	req := wire.PackedFailReq{Epoch: epoch, Fails: make([]wire.PackedFail, len(trials))}
	for i, tr := range trials {
		req.Fails[i] = wire.PackedFail{ID: tr.ID, Kind: wire.FailReleased}
	}
	var ack wire.PackedAck
	c.roundTripRetries(0, wire.TFailP, &req, wire.TAckP, &ack)
}

// wireFailKind maps a guard failure kind to its packed wire code.
func wireFailKind(k guard.Kind) uint8 {
	switch k {
	case guard.Panic:
		return wire.FailPanic
	case guard.Timeout:
		return wire.FailTimeout
	case guard.Invalid:
		return wire.FailInvalid
	default:
		return wire.FailOther
	}
}

// FailN reports a batch of measurement failures for trials leased under
// epoch.
func (c *Client) FailN(epoch int64, fails []core.TrialFailure) (applied, dropped []uint64, err error) {
	req := wire.PackedFailReq{Epoch: epoch, Fails: make([]wire.PackedFail, len(fails))}
	for i, f := range fails {
		wf := wire.PackedFail{ID: f.ID, Kind: wireFailKind(f.Failure.Kind), Penalty: f.Failure.Penalty}
		if f.Failure.Err != nil {
			wf.Msg = f.Failure.Err.Error()
		}
		req.Fails[i] = wf
	}
	var ack wire.PackedAck
	if err := c.roundTrip(wire.TFailP, &req, wire.TAckP, &ack); err != nil {
		return nil, nil, err
	}
	return ack.Applied, ack.Dropped, nil
}

// Heartbeat extends the leases of the given trials, returning the IDs
// still alive. Trials missing from the result were reclaimed (or
// belong to a dead epoch) and should be abandoned.
func (c *Client) Heartbeat(epoch int64, ids []uint64) ([]uint64, error) {
	var resp wire.HeartbeatResp
	if err := c.roundTrip(wire.THeartbeat, &wire.HeartbeatReq{Epoch: epoch, IDs: ids}, wire.THeartbeatAck, &resp); err != nil {
		return nil, err
	}
	return resp.Alive, nil
}

// Ping probes reachability with a single attempt — no retries, no
// backoff — so a degraded worker can poll for a healed partition
// without burning its retry budget per probe. Any error means "still
// unreachable".
func (c *Client) Ping() error {
	var resp wire.StatsResp
	return c.roundTripRetries(0, wire.TStats, nil, wire.TStatsAck, &resp)
}

// Absorb folds a batch of degraded-mode observations into the server's
// selector. (worker, seq) deduplicate retries: resending a batch whose
// ack was lost is safe, the server applies each (worker, seq) at most
// once and answers duplicate=true thereafter. Returns how many
// observations the server applied (0 with duplicate=true means an
// earlier attempt already applied them).
func (c *Client) Absorb(worker, seq uint64, obs []nominal.Observation) (applied int, duplicate bool, err error) {
	req := wire.AbsorbReq{Worker: worker, Seq: seq, Obs: make([]wire.Obs, len(obs))}
	for i, o := range obs {
		req.Obs[i] = wire.Obs{Arm: o.Arm, Value: o.Value, Failed: o.Failed}
	}
	var ack wire.AbsorbAck
	if err := c.roundTrip(wire.TAbsorb, &req, wire.TAbsorbAck, &ack); err != nil {
		return 0, false, err
	}
	return ack.Applied, ack.Duplicate, nil
}

// Calibrate reports a worker's reference-probe time (the wall time of
// measuring the server's RefAlgo at its initial configuration) and
// returns the speed factor the server will now divide this worker's
// costs by, plus the fleet baseline the factor is relative to.
func (c *Client) Calibrate(worker uint64, ref float64) (factor, baseline float64, err error) {
	var ack wire.CalibrateAck
	if err := c.roundTrip(wire.TCalibrate, &wire.CalibrateReq{Worker: worker, Ref: ref}, wire.TCalibrateAck, &ack); err != nil {
		return 0, 0, err
	}
	return ack.Factor, ack.Baseline, nil
}

// Best returns the server's globally best observation so far.
func (c *Client) Best() (wire.BestResp, error) {
	var resp wire.BestResp
	err := c.roundTrip(wire.TBest, nil, wire.TBestAck, &resp)
	return resp, err
}

// Stats returns this client's tenant's engine counters and selection
// counts.
func (c *Client) Stats() (wire.StatsResp, error) {
	var resp wire.StatsResp
	err := c.roundTrip(wire.TStats, nil, wire.TStatsAck, &resp)
	return resp, err
}

// Tenant returns the tenant this client's sessions are routed to ("" =
// the default tenant).
func (c *Client) Tenant() string { return c.tenant }

// Tenants returns the server's aggregate view: one row per registered
// tenant plus fleet totals. Best and Stats stay scoped to this client's
// own tenant; this is the cross-tenant overview.
func (c *Client) Tenants() (wire.TenantsResp, error) {
	var resp wire.TenantsResp
	err := c.roundTrip(wire.TTenants, nil, wire.TTenantsAck, &resp)
	return resp, err
}
