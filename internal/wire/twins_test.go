package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// twinFrame carries p as its JSON twin in a v1 frame and returns the
// frame's type and payload as a v1 reader sees them.
func twinFrame(t *testing.T, typ Type, p Payload) (Type, []byte) {
	t.Helper()
	jt := typ.ForVersion(1)
	frame, err := AppendFrame(nil, 1, jt, 0, Codec(jt, p))
	if err != nil {
		t.Fatal(err)
	}
	gotTyp, payload, err := ReadFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	return gotTyp, payload
}

// TestTwinsRoundTrip: every packed trial message survives packed → JSON
// → packed unchanged.
func TestTwinsRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		typ     Type
		in, out Payload
	}{
		{TLeaseP, &PackedLeaseReq{N: 8, Features: []float64{1, 100.5, -3}}, &PackedLeaseReq{}},
		{TLeaseP, &PackedLeaseReq{N: 1}, &PackedLeaseReq{}},
		{TTrialsP, &PackedTrials{Epoch: 42, SuggestMax: 4, Trials: []PackedTrial{
			{ID: 7, Algo: 2, Config: []float64{1, 2.5}, DeadlineMS: 1700000000000},
			{ID: 1 << 50, Algo: 0, Speculative: true, Pinned: true},
		}}, &PackedTrials{}},
		{TTrialsP, &PackedTrials{Epoch: 42, Done: true, Draining: true, RetryMS: 25}, &PackedTrials{}},
		{TCompleteP, &PackedCompleteReq{Epoch: 42, Worker: 0xfeed, Results: []PackedResult{{ID: 7, Value: 3.25}, {ID: 1 << 48, Value: -9}}}, &PackedCompleteReq{}},
		{TFailP, &PackedFailReq{Epoch: 42, Fails: []PackedFail{
			{ID: 1, Kind: FailPanic, Penalty: 100, Msg: "boom"},
			{ID: 2, Kind: FailTimeout},
			{ID: 3, Kind: FailInvalid, Penalty: 7},
			{ID: 4, Kind: FailOther, Msg: "other"},
		}}, &PackedFailReq{}},
		{TAckP, &PackedAck{Applied: []uint64{1, 2}, Dropped: []uint64{3}}, &PackedAck{}},
		{TAckP, &PackedAck{}, &PackedAck{}},
	} {
		typ, payload := twinFrame(t, tc.typ, tc.in)
		if typ.Packed() || typ.Canonical() != tc.typ {
			t.Fatalf("%s travels as %s on v1", tc.typ, typ)
		}
		if err := Codec(typ, tc.out).DecodeFrom(payload); err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		if !reflect.DeepEqual(tc.in, tc.out) {
			t.Errorf("%s round trip = %+v, want %+v", typ, tc.out, tc.in)
		}
	}
}

// TestTwinsGoldenJSON pins the JSON bytes of the twins to what the v1/v2
// encoders always sent: empty Trials, Applied and Dropped are omitted,
// an empty results list is kept, and failure kinds travel as guard
// kind strings.
func TestTwinsGoldenJSON(t *testing.T) {
	for _, tc := range []struct {
		typ  Type
		p    Payload
		want string
	}{
		{TLeaseP, &PackedLeaseReq{N: 8}, `{"n":8}`},
		{TLeaseP, &PackedLeaseReq{N: 8, Features: []float64{1, 100.5}}, `{"n":8,"features":[1,100.5]}`},
		{TTrialsP, &PackedTrials{Epoch: 42, RetryMS: 25, Draining: true, Trials: []PackedTrial{}},
			`{"epoch":42,"retry_ms":25,"draining":true}`},
		{TTrialsP, &PackedTrials{Epoch: 42, Trials: []PackedTrial{{ID: 7, Algo: 2, Config: []float64{1, 2.5}, DeadlineMS: 1700000000000}}},
			`{"epoch":42,"trials":[{"id":7,"algo":2,"config":[1,2.5],"deadline_ms":1700000000000}]}`},
		{TCompleteP, &PackedCompleteReq{Epoch: 42, Worker: 7, Results: []PackedResult{{ID: 9, Value: 1.5}}},
			`{"epoch":42,"worker":7,"results":[{"id":9,"value":1.5}]}`},
		{TCompleteP, &PackedCompleteReq{Epoch: 42}, `{"epoch":42,"results":[]}`},
		{TFailP, &PackedFailReq{Epoch: 42, Fails: []PackedFail{{ID: 9, Kind: FailTimeout, Penalty: 100, Msg: "deadline"}}},
			`{"epoch":42,"fails":[{"id":9,"kind":"timeout","penalty":100,"msg":"deadline"}]}`},
		{TAckP, &PackedAck{Applied: []uint64{}, Dropped: []uint64{}}, `{}`},
		{TAckP, &PackedAck{Applied: []uint64{1}}, `{"applied":[1]}`},
		{TAckP, &PackedAck{Dropped: []uint64{2}}, `{"dropped":[2]}`},
	} {
		if _, payload := twinFrame(t, tc.typ, tc.p); string(payload) != tc.want {
			t.Errorf("%s JSON = %s, want %s", tc.typ, payload, tc.want)
		}
	}
}

// TestTwinsFromJSON covers what only the JSON side can express:
// Result.Features is dropped, and kind strings a packed byte does not
// name decode as FailOther.
func TestTwinsFromJSON(t *testing.T) {
	var c PackedCompleteReq
	req := &CompleteNReq{Epoch: 1, Results: []Result{{ID: 5, Value: 2, Features: []float64{100}}}}
	if err := Codec(TCompleteN, &c).DecodeFrom(req.AppendEncode(nil)); err != nil {
		t.Fatal(err)
	}
	if want := []PackedResult{{ID: 5, Value: 2}}; c.Epoch != 1 || !reflect.DeepEqual(c.Results, want) {
		t.Fatalf("complete = %+v", c)
	}
	var f PackedFailReq
	freq := &FailNReq{Fails: []Fail{{ID: 1, Kind: "meteor"}, {ID: 2, Kind: "panic"}}}
	if err := Codec(TFailN, &f).DecodeFrom(freq.AppendEncode(nil)); err != nil {
		t.Fatal(err)
	}
	if f.Fails[0].Kind != FailOther || f.Fails[1].Kind != FailPanic {
		t.Fatalf("kinds = %d, %d; want FailOther, FailPanic", f.Fails[0].Kind, f.Fails[1].Kind)
	}
}

// TestTwinTypes pins the type mapping and that v3 resolution is the
// identity — the packed path runs no conversion code.
func TestTwinTypes(t *testing.T) {
	twins := map[Type]Type{TLeaseP: TLeaseN, TTrialsP: TTrials, TCompleteP: TCompleteN, TFailP: TFailN, TAckP: TAck}
	packed := make(map[Type]Type)
	for p, j := range twins {
		packed[j] = p
	}
	for typ := THello; typ < numTypes; typ++ {
		for v := byte(1); v <= Version; v++ {
			want := typ
			if j, ok := twins[typ]; ok && v < 3 {
				want = j
			}
			if got := typ.ForVersion(v); got != want {
				t.Errorf("%s.ForVersion(%d) = %s, want %s", typ, v, got, want)
			}
		}
		want := typ
		if p, ok := packed[typ]; ok {
			want = p
		}
		if got := typ.Canonical(); got != want {
			t.Errorf("%s.Canonical() = %s, want %s", typ, got, want)
		}
	}
	p := &PackedAck{}
	if Codec(TAckP, p) != Payload(p) {
		t.Fatal("Codec wrapped a packed message on its packed type")
	}
}
