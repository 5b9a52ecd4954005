package wire

import (
	"bytes"
	"hash/crc32"
	"testing"
)

// FuzzWireDecode throws arbitrary bytes at the frame decoder and, for
// every accepted frame, at the payload decoder of the frame's type. The
// contract under fuzzing: never panic, never allocate beyond the
// validated length prefix, and accept a frame only when every header
// field is valid and the payload matches its checksum. Accepted frames
// must re-encode to an equivalent frame (the payload is returned
// byte-exact), and DecodeFrom must either decode or error — a payload
// that passed the CRC is still untrusted bytes, JSON or packed alike.
func FuzzWireDecode(f *testing.F) {
	// Seeds: valid frames of several shapes plus classic corruptions.
	for _, m := range []struct {
		typ Type
		v   Payload
	}{
		{THello, &Hello{Proto: Version, Hash: 0xdeadbeef, Name: "seed"}},
		{THello, &Hello{Proto: Version, Hash: 0xdeadbeef, Name: "seed", Tenant: "team-a"}},
		{THelloAck, &HelloAck{Proto: Version, Hash: 1, Epoch: 99, Algos: []string{"a", "b"}, LeaseTTLMS: 500}},
		{THelloAck, &HelloAck{Proto: Version, Hash: 1, Epoch: 99, Algos: []string{"a"}, Tenant: "team-a"}},
		{TTenants, nil},
		{TTenantsAck, &TenantsResp{Resident: 1, Iterations: 12, InFlight: 3, Tenants: []TenantStat{
			{Name: "default", Resident: true, Epoch: 7, Iterations: 12, InFlight: 3, BestAlgo: 1, BestName: "b", BestValue: 0.5},
			{Name: "team-a", Resident: false, Iterations: 40, BestAlgo: -1, Spills: 2, Restarts: 1},
		}}},
		{TLeaseN, rawJSON(`{"n":8}`)},
		{TLeaseN, rawJSON(`{"n":8,"features":[1,100.5,-3]}`)},
		{TTrials, &LeaseNResp{Epoch: 42, Trials: []Trial{{ID: 7, Algo: 2, Config: []float64{1, 2.5}, DeadlineMS: 1700000000000}}}},
		{TTrials, &LeaseNResp{Epoch: 42, RetryMS: 25, Draining: true}},
		{TTrials, &LeaseNResp{Epoch: 42, SuggestMax: 4, Trials: []Trial{{ID: 7, Algo: 2}}}},
		{TCompleteN, &CompleteNReq{Epoch: 42, Results: []Result{{ID: 7, Value: 3.25}}}},
		{TCompleteN, &CompleteNReq{Epoch: 42, Results: []Result{{ID: 1 << 48, Value: 3.25, Features: []float64{100}}}}},
		{TFailN, rawJSON(`{"epoch":0,"fails":[{"id":9,"kind":"timeout","penalty":100}]}`)},
		{TAck, rawJSON(`{"applied":[1],"dropped":[2]}`)},
		{THeartbeat, &HeartbeatReq{Epoch: 42, IDs: []uint64{1, 2, 3}}},
		{THeartbeatAck, &HeartbeatResp{Alive: []uint64{1, 3}}},
		{TBest, nil},
		{TBestAck, &BestResp{Algo: 1, Name: "b", Value: 0.5, Iterations: 10}},
		{TStats, nil},
		{TStatsAck, &StatsResp{Leased: 10, Completed: 8, Absorbed: 3, Counts: []int{4, 4}}},
		{TError, &ErrorResp{Code: CodeConfigMismatch, Msg: "hash mismatch"}},
		{TAbsorb, &AbsorbReq{Worker: 0xfeed, Seq: 3, Obs: []Obs{{Arm: 1, Value: 2.5}, {Arm: 0, Value: 9, Failed: true}}}},
		{TAbsorbAck, &AbsorbAck{Applied: 2}},
		{TCalibrate, &CalibrateReq{Worker: 0xfeed, Ref: 4.5}},
		{TCalibrateAck, &CalibrateAck{Factor: 4.0, Baseline: 1.125}},
		{TStatsAck, &StatsResp{DriftEvents: 2, DriftDecays: 1, DriftReforks: 1, DriftStale: 3, PendingProbes: 4, Calibrated: 2}},
		{TStatsAck, &StatsResp{Leased: 10, Completed: 8, Contexts: 3, Rebalanced: 2}},

		// Packed hot-path frames (v3): the binary DecodeFrom paths must
		// survive the same corruption battery as the JSON family.
		{TLeaseP, &PackedLeaseReq{N: 16}},
		{TLeaseP, &PackedLeaseReq{N: 16, Features: []float64{27, 0.5, -1}}},
		{TTrialsP, &PackedTrials{Epoch: 42, Trials: []PackedTrial{
			{ID: 7, Algo: 2, Config: []float64{1, 2.5}, DeadlineMS: 1700000000000},
			{ID: 8, Algo: 0, Speculative: true, Pinned: true},
		}}},
		{TTrialsP, &PackedTrials{Epoch: 42, RetryMS: 25, Draining: true, SuggestMax: 4}},
		{TCompleteP, &PackedCompleteReq{Epoch: 42, Worker: 0xfeed, Results: []PackedResult{{ID: 7, Value: 3.25}, {ID: 1 << 48, Value: -9}}}},
		{TFailP, &PackedFailReq{Epoch: 42, Fails: []PackedFail{{ID: 9, Kind: FailTimeout, Penalty: 100, Msg: "deadline"}}}},
		{TAckP, &PackedAck{Applied: []uint64{1, 2}, Dropped: []uint64{3}}},
		// The fused lease: a completion asking for the next trials, the
		// ack carrying them (or an empty Done batch), and the release of
		// a held lease.
		{TCompleteP, &PackedCompleteReq{Epoch: 42, Worker: 0xfeed, Results: []PackedResult{{ID: 7, Value: 3.25}},
			Next: PackedLeaseReq{N: 1, Features: []float64{100}}}},
		{TAckP, &PackedAck{Applied: []uint64{7}, HasNext: true, Next: PackedTrials{Epoch: 42, Trials: []PackedTrial{
			{ID: 8, Algo: 1, Config: []float64{1, 2.5}, DeadlineMS: 1700000000000}}}}},
		{TAckP, &PackedAck{Dropped: []uint64{7}, HasNext: true, Next: PackedTrials{Epoch: 42, Done: true}}},
		{TFailP, &PackedFailReq{Epoch: 42, Fails: []PackedFail{{ID: 8, Kind: FailReleased}}}},
	} {
		frame, err := Encode(m.typ, m.v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)-1]) // truncated payload
		f.Add(frame[:HeaderSize-3]) // truncated header
		mut := bytes.Clone(frame)
		mut[5] = 0xee // unknown type
		f.Add(mut)
		// The chaos layer's corruption model: one payload byte flipped
		// after framing, which the CRC must catch (regression corpus for
		// internal/chaos soaks — the same fault its Write injects).
		if len(frame) > HeaderSize {
			flipped := bytes.Clone(frame)
			flipped[HeaderSize+(len(frame)-HeaderSize)/2] ^= 0xff
			f.Add(flipped)
		}
		// A chaos reset truncates mid-frame at an arbitrary byte.
		f.Add(frame[:HeaderSize+(len(frame)-HeaderSize)/3])
		// Payloads that pass the CRC but are not the type's payload shape
		// — JSON handed to packed decoders and vice versa included.
		wrongType := bytes.Clone(frame)
		for t := THello; t < numTypes; t++ {
			wrongType[5] = byte(t)
			f.Add(bytes.Clone(wrongType))
		}
	}
	// Old frames: a version-1 client's frames — a Hello with no tenant
	// field among them — must stay readable by the frame decoder, which
	// is how a server reads an old Hello to refuse it.
	for _, m := range []struct {
		typ Type
		v   Payload
	}{
		{THello, &Hello{Proto: 1, Hash: 0xdeadbeef, Name: "v1-worker"}},
		{TLeaseN, rawJSON(`{"n":4}`)},
		{TStats, nil},
		// The retired JSON trial frames.
		{TTrials, &LeaseNResp{Epoch: 42, Trials: []Trial{{ID: 7, Algo: 2, Config: []float64{1, 2.5}, Speculative: true}}}},
		{TCompleteN, &CompleteNReq{Epoch: 42, Worker: 7, Results: []Result{{ID: 9, Value: 1.5, Features: []float64{100}}}}},
		{TFailN, rawJSON(`{"epoch":42,"fails":[{"id":9,"kind":"panic","msg":"boom"},{"id":10,"kind":"meteor"}]}`)},
		{TAck, rawJSON(`{"dropped":[3,4]}`)},
	} {
		frame, err := EncodeV(1, m.typ, m.v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	// Version-gate seeds: a future version must be refused, not misread;
	// a correlation ID on a pre-v3 frame is corrupt; a packed type
	// stamped pre-v3 is corrupt; a corr ID on a valid v3 frame is fine.
	{
		frame, err := Encode(THello, &Hello{Proto: Version})
		if err != nil {
			f.Fatal(err)
		}
		next := bytes.Clone(frame)
		next[4] = Version + 1
		f.Add(next)

		badCorr := bytes.Clone(frame)
		badCorr[4] = 2
		badCorr[6], badCorr[7] = 0xBE, 0xEF
		f.Add(badCorr)

		corr := bytes.Clone(frame)
		corr[6], corr[7] = 0xBE, 0xEF
		f.Add(corr)
	}
	{
		frame, err := Encode(TCompleteP, &PackedCompleteReq{Epoch: 1, Results: []PackedResult{{ID: 1, Value: 2}}})
		if err != nil {
			f.Fatal(err)
		}
		old := bytes.Clone(frame)
		old[4] = 2
		f.Add(old)
		// Truncated-window shapes: headers promising more packed elements
		// than the payload holds (hostile-count defense).
		f.Add(frame[:HeaderSize+9]) // epoch + worker, count cut off
	}
	{
		// A packed trials frame whose trial count survives but whose
		// config floats are cut mid-window.
		frame, err := Encode(TTrialsP, &PackedTrials{Epoch: 9, Trials: []PackedTrial{{ID: 1, Algo: 1, Config: []float64{1, 2, 3, 4}}}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[:len(frame)-13])
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, HeaderSize+8))

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, corr, payload, _, err := ReadFrameBuf(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		// Accepted: the frame must have been internally consistent.
		if typ <= TInvalid || typ >= numTypes {
			t.Fatalf("decoder accepted invalid type %d", typ)
		}
		if corr != 0 && data[4] < 3 {
			t.Fatalf("decoder accepted correlation ID %d on a v%d frame", corr, data[4])
		}
		if typ.Packed() && data[4] < 3 {
			t.Fatalf("decoder accepted packed %v frame stamped v%d", typ, data[4])
		}
		if len(payload) > MaxPayload {
			t.Fatalf("decoder returned %d-byte payload beyond MaxPayload", len(payload))
		}
		if len(data) < HeaderSize+len(payload) {
			t.Fatalf("decoder fabricated %d payload bytes from a %d-byte input", len(payload), len(data))
		}
		if got, want := crc32.ChecksumIEEE(payload), bytesToU32(data[12:16]); got != want {
			t.Fatalf("decoder accepted checksum mismatch: payload %08x, header %08x", got, want)
		}
		// The payload decoder for the frame's declared type must decode
		// or error, never panic; TBest, TStats and TTenants carry no
		// body, and TLeaseN, TFailN and TAck have no decoder. Decode twice into the same receiver: packed DecodeFrom
		// reuses internal slices, and the second pass must agree with the
		// first regardless of leftover state.
		if msg := payloadFor(typ); msg != nil {
			if err := msg.DecodeFrom(payload); err == nil {
				if err2 := msg.DecodeFrom(payload); err2 != nil {
					t.Fatalf("decode clean, re-decode into reused receiver failed: %v", err2)
				}
			}
		}
	})
}

// rawJSON is a payload given as its encoded bytes: the seeds of the
// JSON trial types that have no payload struct any more.
type rawJSON string

func (r rawJSON) AppendEncode(buf []byte) []byte { return append(buf, r...) }
func (r rawJSON) DecodeFrom([]byte) error        { return nil }

// payloadFor returns a fresh payload struct for each type that has one.
func payloadFor(typ Type) Payload {
	switch typ {
	case THello:
		return &Hello{}
	case THelloAck:
		return &HelloAck{}
	case TTrials:
		return &LeaseNResp{}
	case TCompleteN:
		return &CompleteNReq{}
	case THeartbeat:
		return &HeartbeatReq{}
	case THeartbeatAck:
		return &HeartbeatResp{}
	case TBestAck:
		return &BestResp{}
	case TStatsAck:
		return &StatsResp{}
	case TError:
		return &ErrorResp{}
	case TAbsorb:
		return &AbsorbReq{}
	case TAbsorbAck:
		return &AbsorbAck{}
	case TCalibrate:
		return &CalibrateReq{}
	case TCalibrateAck:
		return &CalibrateAck{}
	case TTenantsAck:
		return &TenantsResp{}
	case TLeaseP:
		return &PackedLeaseReq{}
	case TTrialsP:
		return &PackedTrials{}
	case TCompleteP:
		return &PackedCompleteReq{}
	case TFailP:
		return &PackedFailReq{}
	case TAckP:
		return &PackedAck{}
	default:
		return nil
	}
}

func bytesToU32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
