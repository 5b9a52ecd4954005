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

// rawSession is a hand-rolled lockstep client speaking one protocol
// version in raw frames: it stamps every request with that version and
// refuses replies stamped otherwise. Unlike the Client it chooses the
// frame types and payload structs itself, so a test can drive the JSON
// and the packed encodings independently of the wire package's
// conversion.
type rawSession struct {
	t     *testing.T
	conn  net.Conn
	br    *bufio.Reader
	proto byte
	epoch int64
}

func dialRaw(t *testing.T, addr string, proto byte) *rawSession {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	r := &rawSession{t: t, conn: conn, br: bufio.NewReader(conn), proto: proto}
	var ack wire.HelloAck
	r.roundTrip(wire.THello, &wire.Hello{Proto: int(proto)}, wire.THelloAck, &ack)
	r.epoch = ack.Epoch
	return r
}

func (r *rawSession) roundTrip(reqType wire.Type, req wire.Payload, respType wire.Type, resp wire.Payload) {
	r.t.Helper()
	frame, err := wire.EncodeV(r.proto, reqType, req)
	if err != nil {
		r.t.Fatal(err)
	}
	if _, err := r.conn.Write(frame); err != nil {
		r.t.Fatal(err)
	}
	if hdr, err := r.br.Peek(wire.HeaderSize); err != nil || hdr[4] != r.proto {
		r.t.Fatalf("reply to %s: header %x, %v; want a v%d stamp", reqType, hdr, err, r.proto)
	}
	typ, payload, err := wire.ReadFrame(r.br)
	if err != nil {
		r.t.Fatal(err)
	}
	if typ != respType {
		r.t.Fatalf("%s answered with %s, want %s", reqType, typ, respType)
	}
	if err := resp.DecodeFrom(payload); err != nil {
		r.t.Fatal(err)
	}
}

// parityFail is one scripted failure in both encodings.
type parityFail struct {
	id     uint64
	kind   string // JSON Fail.Kind
	packed uint8  // packed PackedFail.Kind
}

// lease, complete and fail run one trial operation in the session's
// encoding — the v1 JSON messages or the v3 packed ones — and return
// the answer in packed form for comparison.
func (r *rawSession) lease(n int) []wire.PackedTrial {
	r.t.Helper()
	if r.proto >= 3 {
		var resp wire.PackedTrials
		r.roundTrip(wire.TLeaseP, &wire.PackedLeaseReq{N: n}, wire.TTrialsP, &resp)
		return resp.Trials
	}
	var resp wire.LeaseNResp
	r.roundTrip(wire.TLeaseN, &wire.LeaseNReq{N: n}, wire.TTrials, &resp)
	var out []wire.PackedTrial
	for _, tr := range resp.Trials {
		out = append(out, wire.PackedTrial{ID: tr.ID, Algo: tr.Algo, Config: tr.Config,
			Speculative: tr.Speculative, Pinned: tr.Pinned})
	}
	return out
}

func (r *rawSession) complete(epoch int64, ids []uint64) wire.PackedAck {
	r.t.Helper()
	var ack wire.PackedAck
	if r.proto >= 3 {
		req := wire.PackedCompleteReq{Epoch: epoch}
		for _, id := range ids {
			req.Results = append(req.Results, wire.PackedResult{ID: id, Value: float64(id)})
		}
		r.roundTrip(wire.TCompleteP, &req, wire.TAckP, &ack)
		return ack
	}
	req := wire.CompleteNReq{Epoch: epoch}
	for _, id := range ids {
		req.Results = append(req.Results, wire.Result{ID: id, Value: float64(id)})
	}
	var jack wire.AckResp
	r.roundTrip(wire.TCompleteN, &req, wire.TAck, &jack)
	return wire.PackedAck{Applied: jack.Applied, Dropped: jack.Dropped}
}

func (r *rawSession) fail(epoch int64, fails []parityFail) wire.PackedAck {
	r.t.Helper()
	var ack wire.PackedAck
	if r.proto >= 3 {
		req := wire.PackedFailReq{Epoch: epoch}
		for _, f := range fails {
			req.Fails = append(req.Fails, wire.PackedFail{ID: f.id, Kind: f.packed, Penalty: 50, Msg: f.kind})
		}
		r.roundTrip(wire.TFailP, &req, wire.TAckP, &ack)
		return ack
	}
	req := wire.FailNReq{Epoch: epoch}
	for _, f := range fails {
		req.Fails = append(req.Fails, wire.Fail{ID: f.id, Kind: f.kind, Penalty: 50, Msg: f.kind})
	}
	var jack wire.AckResp
	r.roundTrip(wire.TFailN, &req, wire.TAck, &jack)
	return wire.PackedAck{Applied: jack.Applied, Dropped: jack.Dropped}
}

// parityRun is everything one scripted session observed.
type parityRun struct {
	trials   []wire.PackedTrial
	acks     []wire.PackedAck
	counts   []int
	failures core.FailureStats
}

// runParityScript drives the scripted trial sequence over one raw
// session of the given protocol version against a fresh engine.
func runParityScript(t *testing.T, proto byte) parityRun {
	t.Helper()
	eng, err := core.NewConcurrentTuner(testAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 7)
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
	r := dialRaw(t, ln.Addr().String(), proto)

	var run parityRun
	run.trials = r.lease(4)
	if len(run.trials) != 4 {
		t.Fatalf("v%d leased %d trials, want 4", proto, len(run.trials))
	}
	run.trials = append(run.trials, r.lease(2)...)
	id := func(i int) uint64 { return run.trials[i].ID }
	stale := r.epoch + 1
	run.acks = []wire.PackedAck{
		r.complete(r.epoch, []uint64{id(0), id(1)}),
		r.complete(r.epoch, []uint64{id(0)}), // duplicate
		r.complete(stale, []uint64{id(2)}),
		r.fail(stale, []parityFail{{id(3), "timeout", wire.FailTimeout}}),
		r.fail(r.epoch, []parityFail{
			{id(2), "panic", wire.FailPanic},
			{id(3), "timeout", wire.FailTimeout},
			{id(4), "invalid", wire.FailInvalid},
			{id(5), "meteor", wire.FailOther}, // unknown kind: charged as invalid
		}),
	}
	run.counts = eng.Counts()
	run.failures = eng.FailureStats()
	return run
}

// TestEncodingParity runs one scripted trial sequence over a raw v1 JSON
// session and over a raw v3 packed session, each against a fresh engine
// with the same seed: both encodings must reach the same handler and
// leave identical traces — trials, acks, selection counts and failure
// accounting.
func TestEncodingParity(t *testing.T) {
	v1 := runParityScript(t, 1)
	v3 := runParityScript(t, 3)

	for i := range v1.trials {
		a, b := v1.trials[i], v3.trials[i]
		if a.ID != b.ID || a.Algo != b.Algo || !reflect.DeepEqual(a.Config, b.Config) ||
			a.Speculative != b.Speculative || a.Pinned != b.Pinned {
			t.Errorf("trial %d: v1 %+v, v3 %+v", i, a, b)
		}
	}
	for i := range v1.acks {
		a, b := v1.acks[i], v3.acks[i]
		if !reflect.DeepEqual(a.Applied, b.Applied) || !reflect.DeepEqual(a.Dropped, b.Dropped) {
			t.Errorf("ack %d: v1 %+v, v3 %+v", i, a, b)
		}
	}
	if !reflect.DeepEqual(v1.counts, v3.counts) {
		t.Errorf("counts: v1 %v, v3 %v", v1.counts, v3.counts)
	}
	if !reflect.DeepEqual(v1.failures, v3.failures) {
		t.Errorf("failure stats: v1 %+v, v3 %+v", v1.failures, v3.failures)
	}

	// The script's own expectations, so parity cannot hold vacuously.
	ids := func(is ...int) []uint64 {
		var out []uint64
		for _, i := range is {
			out = append(out, v1.trials[i].ID)
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
	if !reflect.DeepEqual(v1.acks, want) {
		t.Errorf("acks = %+v, want %+v", v1.acks, want)
	}
	if f := v1.failures; f.Total != 4 || f.Panics != 1 || f.Timeouts != 1 || f.Invalids != 2 {
		t.Errorf("failure stats = %+v, want 1 panic, 1 timeout, 2 invalid", f)
	}
}
