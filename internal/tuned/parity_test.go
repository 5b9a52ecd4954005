package tuned

import (
	"bufio"
	"net"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/nominal"
	"repro/internal/wire"
)

// rawSession is a hand-rolled lockstep client speaking raw v3 frames:
// it chooses the frame types and payload structs itself, independently
// of the Client. With pipelined set it stamps each request with its own
// nonzero correlation ID, as a pipelining peer does, and checks the
// reply echoes it; otherwise every request carries ID 0.
type rawSession struct {
	t         *testing.T
	conn      net.Conn
	br        *bufio.Reader
	pipelined bool
	corr      uint16
	epoch     int64
}

func dialRaw(t *testing.T, addr string, pipelined bool) *rawSession {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	r := &rawSession{t: t, conn: conn, br: bufio.NewReader(conn)}
	var ack wire.HelloAck
	r.roundTrip(wire.THello, &wire.Hello{Proto: wire.Version}, wire.THelloAck, &ack) // the handshake is not pipelined
	r.epoch, r.pipelined = ack.Epoch, pipelined
	return r
}

// send writes one request frame and returns the correlation ID it
// carries.
func (r *rawSession) send(reqType wire.Type, req wire.Payload) uint16 {
	r.t.Helper()
	var corr uint16
	if r.pipelined {
		r.corr++
		corr = r.corr
	}
	frame, err := wire.AppendFrame(nil, wire.Version, reqType, corr, req)
	if err != nil {
		r.t.Fatal(err)
	}
	if _, err := r.conn.Write(frame); err != nil {
		r.t.Fatal(err)
	}
	return corr
}

func (r *rawSession) roundTrip(reqType wire.Type, req wire.Payload, respType wire.Type, resp wire.Payload) {
	r.t.Helper()
	want := r.send(reqType, req)
	if hdr, err := r.br.Peek(wire.HeaderSize); err != nil || hdr[4] != wire.Version {
		r.t.Fatalf("reply to %s: header %x, %v; want a v%d stamp", reqType, hdr, err, wire.Version)
	}
	typ, corr, payload, _, err := wire.ReadFrameBuf(r.br, nil)
	if err != nil {
		r.t.Fatal(err)
	}
	if corr != want {
		r.t.Fatalf("reply to %s carries correlation ID %d, want %d", reqType, corr, want)
	}
	if typ != respType {
		r.t.Fatalf("%s answered with %s, want %s", reqType, typ, respType)
	}
	if err := resp.DecodeFrom(payload); err != nil {
		r.t.Fatal(err)
	}
}

// parityFail is one scripted failure.
type parityFail struct {
	id   uint64
	kind uint8
	msg  string
}

// lease, complete and fail run one trial operation in packed frames.
func (r *rawSession) lease(n int) []wire.PackedTrial {
	r.t.Helper()
	var resp wire.PackedTrials
	r.roundTrip(wire.TLeaseP, &wire.PackedLeaseReq{N: n}, wire.TTrialsP, &resp)
	return resp.Trials
}

func (r *rawSession) complete(epoch int64, ids []uint64) wire.PackedAck {
	r.t.Helper()
	req := wire.PackedCompleteReq{Epoch: epoch}
	for _, id := range ids {
		req.Results = append(req.Results, wire.PackedResult{ID: id, Value: float64(id)})
	}
	var ack wire.PackedAck
	r.roundTrip(wire.TCompleteP, &req, wire.TAckP, &ack)
	return ack
}

func (r *rawSession) fail(epoch int64, fails []parityFail) wire.PackedAck {
	r.t.Helper()
	req := wire.PackedFailReq{Epoch: epoch}
	for _, f := range fails {
		req.Fails = append(req.Fails, wire.PackedFail{ID: f.id, Kind: f.kind, Penalty: 50, Msg: f.msg})
	}
	var ack wire.PackedAck
	r.roundTrip(wire.TFailP, &req, wire.TAckP, &ack)
	return ack
}

// parityRun is everything one scripted session observed.
type parityRun struct {
	trials   []wire.PackedTrial
	acks     []wire.PackedAck
	counts   []int
	failures core.FailureStats
}

// runParityScript drives the scripted trial sequence over one raw
// session against a fresh engine.
func runParityScript(t *testing.T, pipelined bool) parityRun {
	t.Helper()
	eng, err := core.NewTuner(testAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	r := dialRaw(t, ln.Addr().String(), pipelined)

	var run parityRun
	run.trials = r.lease(4)
	if len(run.trials) != 4 {
		t.Fatalf("leased %d trials, want 4", len(run.trials))
	}
	run.trials = append(run.trials, r.lease(2)...)
	id := func(i int) uint64 { return run.trials[i].ID }
	stale := r.epoch + 1
	run.acks = []wire.PackedAck{
		r.complete(r.epoch, []uint64{id(0), id(1)}),
		r.complete(r.epoch, []uint64{id(0)}), // duplicate
		r.complete(stale, []uint64{id(2)}),
		r.fail(stale, []parityFail{{id(3), wire.FailTimeout, "timeout"}}),
		r.fail(r.epoch, []parityFail{
			{id(2), wire.FailPanic, "panic"},
			{id(3), wire.FailTimeout, "timeout"},
			{id(4), wire.FailInvalid, "invalid"},
			{id(5), wire.FailOther, "meteor"}, // other kind: charged as invalid
		}),
	}
	run.counts = eng.Counts()
	run.failures = eng.FailureStats()
	return run
}

// TestEncodingParity runs one scripted trial sequence over two raw v3
// packed sessions, one in lockstep with correlation ID 0 and one
// stamping every request with its own ID as a pipelining peer does,
// each against a fresh engine with the same seed: both framings must
// reach the same handler and leave identical traces — trials, acks,
// selection counts and failure accounting.
func TestEncodingParity(t *testing.T) {
	lock := runParityScript(t, false)
	pipe := runParityScript(t, true)

	for i := range lock.trials {
		a, b := lock.trials[i], pipe.trials[i]
		if a.ID != b.ID || a.Algo != b.Algo || !reflect.DeepEqual(a.Config, b.Config) ||
			a.Speculative != b.Speculative || a.Pinned != b.Pinned {
			t.Errorf("trial %d: lockstep %+v, pipelined %+v", i, a, b)
		}
	}
	for i := range lock.acks {
		a, b := lock.acks[i], pipe.acks[i]
		if !reflect.DeepEqual(a.Applied, b.Applied) || !reflect.DeepEqual(a.Dropped, b.Dropped) {
			t.Errorf("ack %d: lockstep %+v, pipelined %+v", i, a, b)
		}
	}
	if !reflect.DeepEqual(lock.counts, pipe.counts) {
		t.Errorf("counts: lockstep %v, pipelined %v", lock.counts, pipe.counts)
	}
	if !reflect.DeepEqual(lock.failures, pipe.failures) {
		t.Errorf("failure stats: lockstep %+v, pipelined %+v", lock.failures, pipe.failures)
	}

	// The script's own expectations, so parity cannot hold vacuously.
	ids := func(is ...int) []uint64 {
		var out []uint64
		for _, i := range is {
			out = append(out, lock.trials[i].ID)
		}
		return out
	}
	want := []wire.PackedAck{
		{Applied: ids(0, 1)},
		{Dropped: ids(0)},
		{Dropped: ids(2)},
		{Dropped: ids(3)},
		{Applied: ids(2, 3, 4, 5)},
	}
	if !reflect.DeepEqual(lock.acks, want) {
		t.Errorf("acks = %+v, want %+v", lock.acks, want)
	}
	if f := lock.failures; f.Total != 4 || f.Panics != 1 || f.Timeouts != 1 || f.Invalids != 2 {
		t.Errorf("failure stats = %+v, want 1 panic, 1 timeout, 2 invalid", f)
	}
}
