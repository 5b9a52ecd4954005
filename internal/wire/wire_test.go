package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/iotest"
)

func TestRoundTrip(t *testing.T) {
	req := &AbsorbReq{Worker: 7, Seq: 2, Obs: []Obs{{Arm: 1, Value: 2.5}, {Arm: 0, Value: 9, Failed: true}}}
	frame, err := Encode(TAbsorb, req)
	if err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if typ != TAbsorb {
		t.Fatalf("type = %v, want %v", typ, TAbsorb)
	}
	var got AbsorbReq
	if err := got.DecodeFrom(payload); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, req) {
		t.Fatalf("roundtrip = %+v, want %+v", got, req)
	}
}

func TestRoundTripEmptyPayload(t *testing.T) {
	frame, err := Encode(TBest, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != HeaderSize {
		t.Fatalf("bodyless frame is %d bytes, want %d", len(frame), HeaderSize)
	}
	typ, payload, err := ReadFrame(bytes.NewReader(frame))
	if err != nil || typ != TBest || len(payload) != 0 {
		t.Fatalf("ReadFrame = (%v, %d bytes, %v)", typ, len(payload), err)
	}
}

func TestStreamedFrames(t *testing.T) {
	var buf bytes.Buffer
	msgs := []struct {
		typ Type
		v   Payload
	}{
		{THello, &Hello{Proto: Version, Name: "w1"}},
		{TCompleteP, &PackedCompleteReq{Epoch: 7, Results: []PackedResult{{ID: 1, Value: 2.5}}}},
		{TStats, nil},
	}
	for _, m := range msgs {
		if err := WriteMsg(&buf, m.typ, m.v); err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range msgs {
		typ, _, err := ReadFrame(&buf)
		if err != nil || typ != m.typ {
			t.Fatalf("frame %d: (%v, %v), want type %v", i, typ, err, m.typ)
		}
	}
	if _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("past the last frame: %v, want io.EOF", err)
	}
}

// TestCorrelationID proves the v3 flag field carries the correlation ID
// round trip, and that pre-v3 frames still reject nonzero flags in both
// directions.
func TestCorrelationID(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Version, THeartbeat, 0xBEEF, &HeartbeatReq{Epoch: 1, IDs: []uint64{4}}); err != nil {
		t.Fatal(err)
	}
	typ, corr, payload, _, err := ReadFrameBuf(&buf, nil)
	if err != nil || typ != THeartbeat || corr != 0xBEEF {
		t.Fatalf("ReadFrameBuf = (%v, %04x, %v), want heartbeat corr beef", typ, corr, err)
	}
	var req HeartbeatReq
	if err := req.DecodeFrom(payload); err != nil || req.IDs[0] != 4 {
		t.Fatalf("payload decode: %+v, %v", req, err)
	}
	// Encoding a correlation ID into a pre-v3 frame must be refused…
	if _, err := AppendFrame(nil, 2, THeartbeat, 1, &HeartbeatReq{}); !errors.Is(err, ErrBadFlags) {
		t.Fatalf("v2 frame with corr: %v, want ErrBadFlags", err)
	}
	// …and a pre-v3 frame arriving with nonzero flags is corrupt.
	frame, err := EncodeV(2, THeartbeat, &HeartbeatReq{Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	frame[6] = 1
	if _, _, err := ReadFrame(bytes.NewReader(frame)); !errors.Is(err, ErrBadFlags) {
		t.Fatalf("v2 frame with flags: %v, want ErrBadFlags", err)
	}
}

// TestPackedNeedsV3 pins the version gate on the packed types: they
// cannot be stamped into pre-v3 frames, and a pre-v3 frame claiming a
// packed type is rejected on read.
func TestPackedNeedsV3(t *testing.T) {
	if _, err := EncodeV(2, TCompleteP, &PackedCompleteReq{Epoch: 1}); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("EncodeV(2, packed) = %v, want ErrBadVersion", err)
	}
	frame, err := Encode(TCompleteP, &PackedCompleteReq{Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	mut := bytes.Clone(frame)
	mut[4] = 2
	if _, _, err := ReadFrame(bytes.NewReader(mut)); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("v2-stamped packed frame: %v, want ErrBadVersion", err)
	}
}

// TestReadFrameBufReuse proves the read buffer round-trips: the second
// read reuses the first read's buffer when it is large enough.
func TestReadFrameBufReuse(t *testing.T) {
	var stream bytes.Buffer
	for i := 0; i < 3; i++ {
		if err := WriteMsg(&stream, TAckP, &PackedAck{Applied: []uint64{uint64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	var buf []byte
	var lastCap int
	for i := 0; i < 3; i++ {
		var typ Type
		var payload []byte
		var err error
		typ, _, payload, buf, err = ReadFrameBuf(&stream, buf)
		if err != nil || typ != TAckP {
			t.Fatalf("read %d: (%v, %v)", i, typ, err)
		}
		var ack PackedAck
		if err := ack.DecodeFrom(payload); err != nil || ack.Applied[0] != uint64(i) {
			t.Fatalf("read %d: %+v, %v", i, ack, err)
		}
		if i > 0 && cap(buf) != lastCap {
			t.Fatalf("read %d reallocated the buffer (cap %d → %d)", i, lastCap, cap(buf))
		}
		lastCap = cap(buf)
	}
}

// TestJSONByteCompat pins what a v1 or v2 client needs to read the
// refusal a server now answers its Hello with: the error payload
// encodes as plain JSON an old decoder parses, and the frame bytes
// around it are identical across version stamps except for the version
// byte itself.
func TestJSONByteCompat(t *testing.T) {
	req := &ErrorResp{Code: CodeBadRequest, Msg: "protocol version 2, server speaks 3..3"}
	frame, err := EncodeV(2, TError, req)
	if err != nil {
		t.Fatal(err)
	}
	var legacy struct {
		Code int    `json:"code"`
		Msg  string `json:"msg"`
	}
	if err := json.Unmarshal(frame[HeaderSize:], &legacy); err != nil {
		t.Fatalf("payload is not plain JSON: %v", err)
	}
	if legacy.Code != CodeBadRequest || legacy.Msg != req.Msg {
		t.Fatalf("legacy decode = %+v", legacy)
	}
	v1, err := EncodeV(1, TError, req)
	if err != nil {
		t.Fatal(err)
	}
	if v1[4] != 1 || frame[4] != 2 {
		t.Fatalf("version stamps = %d, %d", v1[4], frame[4])
	}
	v1[4] = 2
	if !bytes.Equal(v1, frame) {
		t.Fatal("v1 and v2 frames differ beyond the version byte")
	}
}

// mutateHeader encodes a valid frame and flips one header field.
func mutateHeader(t *testing.T, mutate func(frame []byte)) error {
	t.Helper()
	frame, err := Encode(THeartbeat, &HeartbeatReq{IDs: []uint64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	mutate(frame)
	_, _, err = ReadFrame(bytes.NewReader(frame))
	return err
}

func TestRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func([]byte)
		want   error
	}{
		{"magic", func(f []byte) { f[0] = 'X' }, ErrBadMagic},
		{"version-zero", func(f []byte) { f[4] = 0 }, ErrBadVersion},
		{"version-future", func(f []byte) { f[4] = Version + 1 }, ErrBadVersion},
		{"type-zero", func(f []byte) { f[5] = 0 }, ErrBadType},
		{"type-unknown", func(f []byte) { f[5] = byte(numTypes) }, ErrBadType},
		{"flags-pre-v3", func(f []byte) { f[4] = 2; f[6] = 1 }, ErrBadFlags},
		{"oversize", func(f []byte) { binary.BigEndian.PutUint32(f[8:12], MaxPayload+1) }, ErrOversize},
		{"payload-corrupt", func(f []byte) { f[HeaderSize] ^= 0xff }, ErrChecksum},
		{"crc-corrupt", func(f []byte) { f[12] ^= 0xff }, ErrChecksum},
	}
	for _, c := range cases {
		if err := mutateHeader(t, c.mutate); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestTruncated(t *testing.T) {
	frame, err := Encode(TTrialsP, &PackedTrials{Epoch: 1, Trials: []PackedTrial{{ID: 9, Algo: 1, Config: []float64{0.5}}}})
	if err != nil {
		t.Fatal(err)
	}
	// Every proper prefix must fail with ErrUnexpectedEOF (or io.EOF for
	// the empty prefix), never hang or panic.
	for n := 0; n < len(frame); n++ {
		_, _, err := ReadFrame(bytes.NewReader(frame[:n]))
		switch {
		case n == 0 && err != io.EOF:
			t.Fatalf("empty stream: %v, want io.EOF", err)
		case n > 0 && !errors.Is(err, io.ErrUnexpectedEOF):
			t.Fatalf("prefix of %d bytes: %v, want io.ErrUnexpectedEOF", n, err)
		}
	}
}

func TestEncodeRejectsBadType(t *testing.T) {
	if _, err := Encode(TInvalid, nil); !errors.Is(err, ErrBadType) {
		t.Fatalf("Encode(TInvalid) = %v", err)
	}
	if _, err := Encode(numTypes, nil); !errors.Is(err, ErrBadType) {
		t.Fatalf("Encode(numTypes) = %v", err)
	}
}

// TestFrameBuffered feeds a frame to a bufio.Reader one byte at a time:
// only once the header and every payload byte it announces are buffered
// may the reader call the frame complete.
func TestFrameBuffered(t *testing.T) {
	frame, err := Encode(TLeaseP, &PackedLeaseReq{N: 4, Features: []float64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(iotest.OneByteReader(bytes.NewReader(frame)))
	for i := range frame {
		if _, err := br.Peek(i + 1); err != nil { // buffers exactly one more byte
			t.Fatal(err)
		}
		if got, want := FrameBuffered(br), i == len(frame)-1; got != want {
			t.Fatalf("%d of %d bytes buffered: FrameBuffered = %v, want %v", i+1, len(frame), got, want)
		}
	}
}
