package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

func packedRoundTrip(t *testing.T, typ Type, in, out Payload) {
	t.Helper()
	frame, err := Encode(typ, in)
	if err != nil {
		t.Fatal(err)
	}
	gotTyp, payload, err := ReadFrame(bytes.NewReader(frame))
	if err != nil || gotTyp != typ {
		t.Fatalf("ReadFrame = (%v, %v), want %v", gotTyp, err, typ)
	}
	if err := out.DecodeFrom(payload); err != nil {
		t.Fatal(err)
	}
}

func TestPackedLeaseRoundTrip(t *testing.T) {
	for _, in := range []*PackedLeaseReq{
		{N: 16},
		{N: 8, Features: []float64{27, 0.5, -3.25}},
		{N: 0, Features: []float64{}},
	} {
		var got PackedLeaseReq
		packedRoundTrip(t, TLeaseP, in, &got)
		if got.N != in.N || len(got.Features) != len(in.Features) {
			t.Fatalf("roundtrip = %+v, want %+v", got, *in)
		}
		for i := range in.Features {
			if got.Features[i] != in.Features[i] {
				t.Fatalf("feature %d = %v, want %v", i, got.Features[i], in.Features[i])
			}
		}
	}
}

func TestPackedTrialsRoundTrip(t *testing.T) {
	in := &PackedTrials{
		Epoch:      42,
		Done:       true,
		Draining:   true,
		RetryMS:    25,
		SuggestMax: 4,
		Trials: []PackedTrial{
			{ID: 7, Algo: 2, Config: []float64{1, 2.5, -9}, DeadlineMS: 1700000000000},
			{ID: 8, Algo: 0, Speculative: true, Pinned: true},
			{ID: 1 << 50, Algo: 1, Config: []float64{0.125}},
		},
	}
	var got PackedTrials
	packedRoundTrip(t, TTrialsP, in, &got)
	if got.Epoch != in.Epoch || got.Done != in.Done || got.Draining != in.Draining ||
		got.RetryMS != in.RetryMS || got.SuggestMax != in.SuggestMax {
		t.Fatalf("header roundtrip = %+v", got)
	}
	if len(got.Trials) != len(in.Trials) {
		t.Fatalf("got %d trials, want %d", len(got.Trials), len(in.Trials))
	}
	for i := range in.Trials {
		w, g := in.Trials[i], got.Trials[i]
		if g.ID != w.ID || g.Algo != w.Algo || g.DeadlineMS != w.DeadlineMS ||
			g.Speculative != w.Speculative || g.Pinned != w.Pinned ||
			!reflect.DeepEqual(g.Config, w.Config) {
			t.Fatalf("trial %d = %+v, want %+v", i, g, w)
		}
	}
}

func TestPackedCompleteRoundTrip(t *testing.T) {
	in := &PackedCompleteReq{Epoch: 42, Worker: 0xfeed, Results: []PackedResult{
		{ID: 7, Value: 3.25}, {ID: 1 << 48, Value: -1e300},
	}}
	var got PackedCompleteReq
	packedRoundTrip(t, TCompleteP, in, &got)
	if !reflect.DeepEqual(&got, in) {
		t.Fatalf("roundtrip = %+v, want %+v", got, *in)
	}
}

func TestPackedFailRoundTrip(t *testing.T) {
	in := &PackedFailReq{Epoch: 9, Fails: []PackedFail{
		{ID: 9, Kind: FailTimeout, Penalty: 100, Msg: "deadline exceeded"},
		{ID: 10, Kind: FailPanic},
	}}
	var got PackedFailReq
	packedRoundTrip(t, TFailP, in, &got)
	if !reflect.DeepEqual(&got, in) {
		t.Fatalf("roundtrip = %+v, want %+v", got, *in)
	}
}

func TestPackedAckRoundTrip(t *testing.T) {
	in := &PackedAck{Applied: []uint64{1, 2, 1 << 40}, Dropped: []uint64{3}}
	var got PackedAck
	packedRoundTrip(t, TAckP, in, &got)
	if !reflect.DeepEqual(&got, in) {
		t.Fatalf("roundtrip = %+v, want %+v", got, *in)
	}
}

// TestPackedLeaseTails round-trips the fused lease: a completion whose
// tail asks for the next trials, an ack whose tail carries them, and a
// release entry. A frame without a tail keeps the bytes it had before
// tails existed.
func TestPackedLeaseTails(t *testing.T) {
	req := &PackedCompleteReq{Epoch: 42, Worker: 7, Results: []PackedResult{{ID: 9, Value: 1.5}},
		Next: PackedLeaseReq{N: 2, Features: []float64{100}}}
	var gotReq PackedCompleteReq
	packedRoundTrip(t, TCompleteP, req, &gotReq)
	if !reflect.DeepEqual(&gotReq, req) {
		t.Fatalf("completion with a lease tail = %+v, want %+v", gotReq, *req)
	}
	plain := PackedCompleteReq{Epoch: 42, Worker: 7, Results: req.Results}
	if got, want := req.AppendEncode(nil), plain.AppendEncode(nil); !bytes.HasPrefix(got, want) || len(got) == len(want) {
		t.Fatalf("tail is not appended after the untailed encoding: %x vs %x", got, want)
	}
	// A tail-less frame decoded into a receiver that held a tail clears it.
	if err := gotReq.DecodeFrom(plain.AppendEncode(nil)); err != nil || gotReq.Next.N != 0 || len(gotReq.Next.Features) != 0 {
		t.Fatalf("tail-less decode into a reused receiver left %+v (%v)", gotReq.Next, err)
	}

	ack := &PackedAck{Applied: []uint64{9}, HasNext: true, Next: PackedTrials{Epoch: 42, SuggestMax: 3,
		Trials: []PackedTrial{{ID: 10, Algo: 1, Config: []float64{0.5}, DeadlineMS: 1700000000000}}}}
	var gotAck PackedAck
	packedRoundTrip(t, TAckP, ack, &gotAck)
	if !gotAck.HasNext || gotAck.Next.Epoch != 42 || gotAck.Next.SuggestMax != 3 || len(gotAck.Next.Trials) != 1 ||
		gotAck.Next.Trials[0].ID != 10 || !reflect.DeepEqual(gotAck.Next.Trials[0].Config, []float64{0.5}) {
		t.Fatalf("ack with a trials tail = %+v", gotAck)
	}
	done := &PackedAck{Dropped: []uint64{9}, HasNext: true, Next: PackedTrials{Epoch: 42, Done: true}}
	packedRoundTrip(t, TAckP, done, &gotAck)
	if !gotAck.HasNext || !gotAck.Next.Done || len(gotAck.Next.Trials) != 0 || len(gotAck.Applied) != 0 {
		t.Fatalf("ack with an empty Done tail = %+v", gotAck)
	}
	if err := gotAck.DecodeFrom((&PackedAck{Applied: []uint64{1}}).AppendEncode(nil)); err != nil || gotAck.HasNext || gotAck.Next.Done || len(gotAck.Next.Trials) != 0 {
		t.Fatalf("tail-less ack decoded into a reused receiver = %+v (%v)", gotAck, err)
	}

	rel := &PackedFailReq{Epoch: 42, Fails: []PackedFail{{ID: 10, Kind: FailReleased}}}
	var gotRel PackedFailReq
	packedRoundTrip(t, TFailP, rel, &gotRel)
	if !reflect.DeepEqual(&gotRel, rel) {
		t.Fatalf("release = %+v, want %+v", gotRel, *rel)
	}
}

// TestPackedTruncatedTails cuts each tail at every length short of its
// end: a present but truncated tail must be an error, never read as
// "no lease" or an empty batch.
func TestPackedTruncatedTails(t *testing.T) {
	for _, c := range []struct {
		typ        Type
		head, full []byte
	}{
		{TCompleteP,
			(&PackedCompleteReq{Epoch: 1, Results: []PackedResult{{ID: 1, Value: 2}}}).AppendEncode(nil),
			(&PackedCompleteReq{Epoch: 1, Results: []PackedResult{{ID: 1, Value: 2}}, Next: PackedLeaseReq{N: 1, Features: []float64{3}}}).AppendEncode(nil)},
		{TAckP,
			(&PackedAck{Applied: []uint64{1}}).AppendEncode(nil),
			(&PackedAck{Applied: []uint64{1}, HasNext: true, Next: PackedTrials{Epoch: 5, Trials: []PackedTrial{{ID: 2, Algo: 1, DeadlineMS: 9, Config: []float64{1}}}}}).AppendEncode(nil)},
	} {
		if err := payloadFor(c.typ).DecodeFrom(c.full); err != nil {
			t.Fatalf("%v: full tailed payload rejected: %v", c.typ, err)
		}
		for n := len(c.head) + 1; n < len(c.full); n++ {
			if err := payloadFor(c.typ).DecodeFrom(c.full[:n]); err == nil {
				t.Errorf("%v: tail cut to %d of %d bytes accepted", c.typ, n-len(c.head), len(c.full)-len(c.head))
			}
		}
	}
}

// TestPackedHostileCounts pins the count-validation defense: a payload
// whose count field promises more elements than its bytes can hold must
// be rejected before any slice grows.
func TestPackedHostileCounts(t *testing.T) {
	cases := []struct {
		name string
		typ  Type
		buf  []byte
	}{
		// LeaseP: n=1, nFeat=2^30 with no feature bytes.
		{"lease-features", TLeaseP, []byte{1, 0x84, 0x80, 0x80, 0x80, 0x00}},
		// CompleteP: epoch, worker=0, n=2^30, no results.
		{"complete-results", TCompleteP, append(bytes.Repeat([]byte{0}, 8), 0, 0x84, 0x80, 0x80, 0x80, 0x00)},
		// FailP: epoch, n=2^30, no fails.
		{"fail-fails", TFailP, append(bytes.Repeat([]byte{0}, 8), 0x84, 0x80, 0x80, 0x80, 0x00)},
		// TrialsP: epoch, flags, retry, suggest, nTrials=2^30.
		{"trials-count", TTrialsP, append(bytes.Repeat([]byte{0}, 8), 0, 0, 0, 0x84, 0x80, 0x80, 0x80, 0x00)},
		// AckP: nApplied=2^30.
		{"ack-applied", TAckP, []byte{0x84, 0x80, 0x80, 0x80, 0x00}},
	}
	for _, c := range cases {
		msg := payloadFor(c.typ)
		if err := msg.DecodeFrom(c.buf); !errors.Is(err, ErrShort) {
			t.Errorf("%s: DecodeFrom = %v, want ErrShort", c.name, err)
		}
	}
}

// TestPackedTruncation feeds every proper prefix of each packed payload
// to its decoder: all must error, none may panic.
func TestPackedTruncation(t *testing.T) {
	full := map[Type][]byte{
		TLeaseP:    (&PackedLeaseReq{N: 4, Features: []float64{1, 2}}).AppendEncode(nil),
		TTrialsP:   (&PackedTrials{Epoch: 1, Trials: []PackedTrial{{ID: 1, Algo: 1, DeadlineMS: 5, Config: []float64{1}}}}).AppendEncode(nil),
		TCompleteP: (&PackedCompleteReq{Epoch: 1, Worker: 2, Results: []PackedResult{{ID: 1, Value: 2}}}).AppendEncode(nil),
		TFailP:     (&PackedFailReq{Epoch: 1, Fails: []PackedFail{{ID: 1, Kind: FailOther, Msg: "x"}}}).AppendEncode(nil),
		TAckP:      (&PackedAck{Applied: []uint64{1}, Dropped: []uint64{2}}).AppendEncode(nil),
	}
	for typ, buf := range full {
		if err := payloadFor(typ).DecodeFrom(buf); err != nil {
			t.Fatalf("%v: full payload rejected: %v", typ, err)
		}
		for n := 0; n < len(buf); n++ {
			if err := payloadFor(typ).DecodeFrom(buf[:n]); err == nil {
				t.Errorf("%v: %d-byte prefix of %d accepted", typ, n, len(buf))
			}
		}
	}
}

// TestPackedDecodeReuse decodes two different batches into one receiver
// and checks the second result carries no residue of the first — the
// arena/slice reuse must reset lengths, not leak stale elements.
func TestPackedDecodeReuse(t *testing.T) {
	big := (&PackedTrials{Epoch: 1, Trials: []PackedTrial{
		{ID: 1, Algo: 1, Config: []float64{1, 2, 3}},
		{ID: 2, Algo: 0, Config: []float64{4, 5}},
	}}).AppendEncode(nil)
	small := (&PackedTrials{Epoch: 2, Trials: []PackedTrial{
		{ID: 9, Algo: 2, Config: []float64{7}},
	}}).AppendEncode(nil)
	var m PackedTrials
	if err := m.DecodeFrom(big); err != nil {
		t.Fatal(err)
	}
	if err := m.DecodeFrom(small); err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 2 || len(m.Trials) != 1 || m.Trials[0].ID != 9 ||
		!reflect.DeepEqual(m.Trials[0].Config, []float64{7}) {
		t.Fatalf("reused decode = %+v", m)
	}
}

// The acceptance pin for the zero-allocation codec: the packed
// LeaseN/CompleteN hot path — both directions — must not allocate in
// steady state. First iterations may grow internal slices; AllocsPerRun
// runs a warmup round before counting, so only steady-state allocation
// shows up here.

func TestPackedEncodeZeroAllocs(t *testing.T) {
	trials := &PackedTrials{Epoch: 7, Trials: make([]PackedTrial, 16)}
	for i := range trials.Trials {
		trials.Trials[i] = PackedTrial{ID: uint64(i + 1), Algo: i % 3, Config: []float64{1.5, float64(i)}}
	}
	complete := &PackedCompleteReq{Epoch: 7, Worker: 1, Results: make([]PackedResult, 16)}
	for i := range complete.Results {
		complete.Results[i] = PackedResult{ID: uint64(i + 1), Value: float64(i) * 1.25}
	}
	lease := &PackedLeaseReq{N: 16, Features: []float64{27, 0.5}}
	fused := &PackedCompleteReq{Epoch: 7, Worker: 1, Results: complete.Results, Next: *lease}
	ack := &PackedAck{Applied: []uint64{1, 2}, HasNext: true, Next: *trials}

	for _, c := range []struct {
		name string
		typ  Type
		p    Payload
	}{
		{"lease", TLeaseP, lease},
		{"trials", TTrialsP, trials},
		{"complete", TCompleteP, complete},
		{"complete+lease", TCompleteP, fused},
		{"ack+trials", TAckP, ack},
	} {
		buf := make([]byte, 0, 4096)
		allocs := testing.AllocsPerRun(100, func() {
			frame, err := AppendFrame(buf[:0], Version, c.typ, 42, c.p)
			if err != nil {
				t.Fatal(err)
			}
			buf = frame[:0]
		})
		t.Logf("%s encode: %v allocs/op", c.name, allocs)
		if allocs != 0 {
			t.Errorf("%s encode: %v allocs/op, want 0", c.name, allocs)
		}
	}
}

func TestPackedDecodeZeroAllocs(t *testing.T) {
	trials := &PackedTrials{Epoch: 7, Trials: make([]PackedTrial, 16)}
	for i := range trials.Trials {
		trials.Trials[i] = PackedTrial{ID: uint64(i + 1), Algo: i % 3, Config: []float64{1.5, float64(i)}}
	}
	complete := &PackedCompleteReq{Epoch: 7, Worker: 1, Results: make([]PackedResult, 16)}
	for i := range complete.Results {
		complete.Results[i] = PackedResult{ID: uint64(i + 1), Value: float64(i) * 1.25}
	}
	lease := &PackedLeaseReq{N: 16, Features: []float64{27, 0.5}}
	fused := &PackedCompleteReq{Epoch: 7, Worker: 1, Results: complete.Results, Next: *lease}
	ack := &PackedAck{Applied: []uint64{1, 2}, HasNext: true, Next: *trials}

	for _, c := range []struct {
		name string
		pay  []byte
		into Payload
	}{
		{"lease", lease.AppendEncode(nil), &PackedLeaseReq{}},
		{"trials", trials.AppendEncode(nil), &PackedTrials{}},
		{"complete", complete.AppendEncode(nil), &PackedCompleteReq{}},
		{"complete+lease", fused.AppendEncode(nil), &PackedCompleteReq{}},
		{"ack+trials", ack.AppendEncode(nil), &PackedAck{}},
	} {
		// Warm the receiver's slices once so steady state is measured.
		if err := c.into.DecodeFrom(c.pay); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := c.into.DecodeFrom(c.pay); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s decode: %v allocs/op", c.name, allocs)
		if allocs != 0 {
			t.Errorf("%s decode: %v allocs/op, want 0", c.name, allocs)
		}
	}
}

// TestFrameReadZeroAllocs pins the full read path: with a reused buffer,
// ReadFrameBuf + packed DecodeFrom allocates nothing in steady state.
func TestFrameReadZeroAllocs(t *testing.T) {
	complete := &PackedCompleteReq{Epoch: 7, Worker: 1, Results: make([]PackedResult, 16)}
	for i := range complete.Results {
		complete.Results[i] = PackedResult{ID: uint64(i + 1), Value: float64(i) * 1.25}
	}
	frame, err := AppendFrame(nil, Version, TCompleteP, 9, complete)
	if err != nil {
		t.Fatal(err)
	}
	var got PackedCompleteReq
	buf := make([]byte, 0, 4096)
	rd := bytes.NewReader(frame)
	allocs := testing.AllocsPerRun(100, func() {
		rd.Reset(frame)
		var typ Type
		var payload []byte
		var err error
		typ, _, payload, buf, err = ReadFrameBuf(rd, buf)
		if err != nil || typ != TCompleteP {
			t.Fatal(typ, err)
		}
		if err := got.DecodeFrom(payload); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("read path: %v allocs/op", allocs)
	if allocs != 0 {
		t.Errorf("read path: %v allocs/op, want 0", allocs)
	}
}
