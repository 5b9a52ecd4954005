package tuned

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nominal"
	"repro/internal/wire"
)

// countingListener hands out connections that count their Write calls,
// so a test can see how many write syscalls the server spent.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// startCountingServer serves a fresh engine on a listener whose
// connections count the server's writes.
func startCountingServer(t *testing.T) (addr string, writes *atomic.Int64) {
	t.Helper()
	eng, err := core.NewTuner(testAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	writes = new(atomic.Int64)
	go srv.Serve(countingListener{ln, writes})
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String(), writes
}

// leaseFrame encodes one v3 lease request. The feature vector only
// lengthens the payload; the test engine is not contextual.
func leaseFrame(t *testing.T, corr uint16) []byte {
	t.Helper()
	frame, err := wire.AppendFrame(nil, 3, wire.TLeaseP, corr, &wire.PackedLeaseReq{N: 1, Features: []float64{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// readReply reads one reply frame and checks it answers lease corr.
func readReply(t *testing.T, r *rawSession, corr uint16) {
	t.Helper()
	r.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, got, payload, _, err := wire.ReadFrameBuf(r.br, nil)
	if err != nil {
		t.Fatalf("reply %d: %v", corr, err)
	}
	if typ != wire.TTrialsP || got != corr {
		t.Fatalf("got %s corr %d, want %s corr %d", typ, got, wire.TTrialsP, corr)
	}
	var resp wire.PackedTrials
	if err := resp.DecodeFrom(payload); err != nil || len(resp.Trials) != 1 {
		t.Fatalf("reply %d: %d trials, %v", corr, len(resp.Trials), err)
	}
}

// TestPipelinedBurstRepliesInOrder writes eight pipelined lease requests
// in one Write. The server serves them in arrival order and flushes only
// when its read buffer runs dry, so all eight replies come back in
// request order in at most two write syscalls (two if the burst reaches
// the server in two segments).
func TestPipelinedBurstRepliesInOrder(t *testing.T) {
	addr, writes := startCountingServer(t)
	r := dialRaw(t, addr, false)
	writes.Store(0) // the HelloAck has arrived, so its write is counted

	var burst []byte
	for corr := uint16(1); corr <= 8; corr++ {
		burst = append(burst, leaseFrame(t, corr)...)
	}
	if _, err := r.conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	for corr := uint16(1); corr <= 8; corr++ {
		readReply(t, r, corr)
	}
	if n := writes.Load(); n > 2 {
		t.Fatalf("8 pipelined replies took %d server writes, want at most 2", n)
	}
}

// TestPartialFrameDoesNotHoldReply sends a whole lease request followed
// by part of a second one. The first reply must arrive before the rest
// of the second frame is sent: the server may not wait on a frame that
// has not fully arrived while a finished reply sits in its buffer. The
// cut falls once inside the second frame's header and once inside its
// payload.
func TestPartialFrameDoesNotHoldReply(t *testing.T) {
	for _, cut := range []int{wire.HeaderSize / 2, wire.HeaderSize + 4} {
		addr, _ := startCountingServer(t)
		r := dialRaw(t, addr, false)
		first, second := leaseFrame(t, 1), leaseFrame(t, 2)
		if _, err := r.conn.Write(append(first, second[:cut]...)); err != nil {
			t.Fatal(err)
		}
		readReply(t, r, 1)
		if _, err := r.conn.Write(second[cut:]); err != nil {
			t.Fatal(err)
		}
		readReply(t, r, 2)
	}
}
