// Package wire is the framed binary protocol of the distributed tuning
// service: the on-the-wire form of the trial engine's Lease/Complete/
// Fail lifecycle plus the handshake and introspection messages around
// it.
//
// Every message travels in one frame:
//
//	offset  size  field
//	0       4     magic   0x41545731 ("ATW1"), big-endian
//	4       1     version (currently 3; 1 and 2 still framed, see Version)
//	5       1     type    (Type)
//	6       2     flags   — correlation ID on v3 frames (see below);
//	              reserved-zero on v1/v2 frames
//	8       4     payload length in bytes (≤ MaxPayload)
//	12      4     IEEE CRC32 of the payload bytes
//	16      …     payload (Payload encoding of the message struct)
//
// The length prefix bounds the read before any allocation, the CRC
// rejects corruption that TCP's checksum missed (and torn writes when
// frames are replayed from files), and the version byte lets formats
// coexist on the same port.
//
// Payload encodings come in two families. The handshake and
// introspection messages are JSON: debuggable and extensible — unknown
// fields are ignored on decode, so additive evolution needs no version
// bump. The trial messages are packed binary structs: fixed-width value
// fields, varint indices and counts, no per-trial allocation on either
// side (see packed.go). Both families implement the one Payload
// interface, so the frame layer never cares which it is carrying.
//
// v3 frames repurpose the previously reserved-zero flags field as a
// correlation ID: a pipelined peer stamps each request with a nonzero
// ID and the responder echoes it, so responses may return out of order
// on one connection. v1/v2 decoders reject nonzero flags, which is
// exactly right — they speak strict request/response lockstep.
//
// The same decode path is fuzzed (FuzzWireDecode): arbitrary bytes must
// produce an error, never a panic or an oversized allocation.
package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// Frame constants.
const (
	// Magic leads every frame; anything else is not this protocol.
	Magic = 0x41545731 // "ATW1"
	// Version is the protocol version, the only one a server or client
	// speaks. The frame decoder refuses frames from a future version
	// rather than misinterpreting them, and still reads v1 and v2
	// headers, so that a server can read an old client's Hello and
	// answer it with a refusal stamped v1, which every decoder accepts.
	//
	// Version history:
	//
	//	1  initial protocol; Absorb/Calibrate added additively
	//	2  multi-tenancy: Hello.Tenant routes the session to a named
	//	   tenant, TTenants/TTenantsAck list all tenants.
	//	3  hot path: packed binary trial payloads (TLeaseP/TTrialsP/
	//	   TCompleteP/TFailP/TAckP), and the frame flags field becomes a
	//	   correlation ID so requests pipeline per connection and
	//	   responses return out of order. v1/v2 sessions and their
	//	   JSON trial payloads (TLeaseN/TTrials/TCompleteN/TFailN/TAck)
	//	   are retired: a v1 or v2 Hello is refused ("server speaks
	//	   3..3"), and a JSON trial frame is an unexpected frame.
	Version = 3
	// HeaderSize is the fixed frame header length in bytes.
	HeaderSize = 16
	// MaxPayload bounds a frame's payload: the decoder rejects larger
	// length prefixes before allocating, so a corrupt or hostile length
	// field cannot balloon memory. 4 MiB comfortably fits the largest
	// legitimate message (a maximal LeaseN response) with two orders of
	// magnitude to spare.
	MaxPayload = 4 << 20
)

// Payload is the one codec surface every message implements.
// AppendEncode appends the payload's encoding to buf and returns the
// extended slice — append-style, so encoders compose into pooled
// buffers without intermediate allocation. DecodeFrom parses the
// payload from buf, reusing the receiver's internal slices where it can
// (hot-path packed types decode with zero steady-state allocations);
// the receiver must not retain buf beyond the call. Encoding a payload
// our own structs produce cannot fail, so AppendEncode returns no
// error; DecodeFrom must reject, never panic on, arbitrary bytes.
type Payload interface {
	AppendEncode(buf []byte) []byte
	DecodeFrom(buf []byte) error
}

// encodeFailure carries an AppendEncode marshal failure across the
// panic boundary (the Payload interface has no error return);
// AppendFrame converts it back into an ordinary error.
type encodeFailure struct{ err error }

// appendJSON is the AppendEncode body shared by the JSON payload
// family. Marshalling plain exported data structs fails only on
// unencodable values — a NaN or Inf a caller smuggled into a float
// field — so the failure panics with encodeFailure rather than forcing
// an error return through every encoder; AppendFrame recovers it.
func appendJSON(buf []byte, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(encodeFailure{fmt.Errorf("wire: marshal %T: %v", v, err)})
	}
	return append(buf, b...)
}

// decodeJSON is the DecodeFrom body shared by the JSON payload family.
// An empty payload is an error for every message that expects a body.
func decodeJSON(buf []byte, v any) error {
	if len(buf) == 0 {
		return errors.New("wire: empty payload")
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("wire: payload: %v", err)
	}
	return nil
}

// Type identifies a message within a frame.
type Type uint8

// Message types. Requests and responses are distinct types so a decoder
// never needs context to interpret a frame. Every type keeps its number:
// TLeaseN through TAck are the retired JSON trial types, which no server
// or client sends.
const (
	TInvalid Type = iota
	THello
	THelloAck
	TLeaseN
	TTrials
	TCompleteN
	TFailN
	TAck
	THeartbeat
	THeartbeatAck
	TBest
	TBestAck
	TStats
	TStatsAck
	TError
	TAbsorb
	TAbsorbAck
	TCalibrate
	TCalibrateAck
	TTenants
	TTenantsAck

	// Packed hot-path types (v3): binary payloads, see packed.go.
	TLeaseP
	TTrialsP
	TCompleteP
	TFailP
	TAckP

	numTypes
)

// Packed reports whether a type carries a packed binary payload, which
// only v3 frames may do.
func (t Type) Packed() bool { return t >= TLeaseP && t <= TAckP }

// String names the type for diagnostics.
func (t Type) String() string {
	switch t {
	case THello:
		return "hello"
	case THelloAck:
		return "hello-ack"
	case TLeaseN:
		return "lease-n"
	case TTrials:
		return "trials"
	case TCompleteN:
		return "complete-n"
	case TFailN:
		return "fail-n"
	case TAck:
		return "ack"
	case THeartbeat:
		return "heartbeat"
	case THeartbeatAck:
		return "heartbeat-ack"
	case TBest:
		return "best"
	case TBestAck:
		return "best-ack"
	case TStats:
		return "stats"
	case TStatsAck:
		return "stats-ack"
	case TError:
		return "error"
	case TAbsorb:
		return "absorb"
	case TAbsorbAck:
		return "absorb-ack"
	case TCalibrate:
		return "calibrate"
	case TCalibrateAck:
		return "calibrate-ack"
	case TTenants:
		return "tenants"
	case TTenantsAck:
		return "tenants-ack"
	case TLeaseP:
		return "lease-p"
	case TTrialsP:
		return "trials-p"
	case TCompleteP:
		return "complete-p"
	case TFailP:
		return "fail-p"
	case TAckP:
		return "ack-p"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Frame decoding errors. I/O errors from the underlying reader pass
// through unwrapped (io.EOF before any header byte means a clean
// connection close).
var (
	ErrBadMagic   = errors.New("wire: bad frame magic")
	ErrBadVersion = errors.New("wire: unsupported protocol version")
	ErrBadType    = errors.New("wire: unknown message type")
	ErrBadFlags   = errors.New("wire: nonzero reserved flags")
	ErrOversize   = errors.New("wire: frame exceeds MaxPayload")
	ErrChecksum   = errors.New("wire: payload checksum mismatch")
	ErrShort      = errors.New("wire: truncated payload")
)

// bufPool recycles frame buffers across encodes and reads, so the hot
// path neither allocates a frame per message nor holds peak-sized
// buffers forever. Buffers start at 4 KiB; ones grown past 64 KiB are
// dropped instead of pooled, keeping a single jumbo frame from pinning
// memory.
var bufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

// GetBuf borrows a zero-length frame buffer from the codec pool.
func GetBuf() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuf returns a buffer borrowed with GetBuf. Oversized buffers are
// dropped.
func PutBuf(b *[]byte) {
	if cap(*b) > 64<<10 {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// AppendFrame appends one whole frame — header and encoded payload — to
// dst and returns the extended slice. corr is the v3 correlation ID;
// it must be zero when version < 3 (those decoders reject nonzero
// flags), and packed payload types are refused below v3. A nil p
// encodes an empty payload (the bodyless requests TBest, TStats and
// TTenants). This is the zero-allocation encode path: with a pooled
// dst it allocates nothing in steady state.
func AppendFrame(dst []byte, version byte, typ Type, corr uint16, p Payload) (out []byte, err error) {
	if version == 0 || version > Version {
		return dst, ErrBadVersion
	}
	start := len(dst)
	defer func() {
		if r := recover(); r != nil {
			ef, ok := r.(encodeFailure)
			if !ok {
				panic(r)
			}
			out, err = dst[:start], ef.err
		}
	}()
	if typ <= TInvalid || typ >= numTypes {
		return dst, ErrBadType
	}
	if version < 3 {
		if corr != 0 {
			return dst, ErrBadFlags
		}
		if typ.Packed() {
			return dst, fmt.Errorf("%w: packed %s frame needs version 3", ErrBadVersion, typ)
		}
	}
	dst = append(dst, make([]byte, HeaderSize)...)
	if p != nil {
		dst = p.AppendEncode(dst)
	}
	payload := dst[start+HeaderSize:]
	if len(payload) > MaxPayload {
		return dst[:start], ErrOversize
	}
	hdr := dst[start : start+HeaderSize]
	binary.BigEndian.PutUint32(hdr[0:4], Magic)
	hdr[4] = version
	hdr[5] = byte(typ)
	binary.BigEndian.PutUint16(hdr[6:8], corr)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[12:16], crc32.ChecksumIEEE(payload))
	return dst, nil
}

// Encode marshals p and wraps it in a frame stamped with the current
// Version, returning the full frame bytes.
func Encode(typ Type, p Payload) ([]byte, error) {
	return EncodeV(Version, typ, p)
}

// EncodeV is Encode with an explicit frame version stamp, for answering
// an old client in frames its decoder accepts (a v1 ReadFrame refuses
// anything newer than v1) and for building test corpora. The version
// must be in [1, Version]; the JSON payload encoding is identical
// across versions, while packed payloads exist from v3 on.
func EncodeV(version byte, typ Type, p Payload) ([]byte, error) {
	return AppendFrame(nil, version, typ, 0, p)
}

// WriteMsg encodes p and writes the frame to w.
func WriteMsg(w io.Writer, typ Type, p Payload) error {
	return WriteMsgV(w, Version, typ, p)
}

// WriteMsgV is WriteMsg with an explicit frame version stamp (see
// EncodeV): a server answers a Hello it refuses with a v1-stamped
// frame, so an old decoder can read why. The frame buffer is pooled —
// one Write, no steady-state allocation.
func WriteMsgV(w io.Writer, version byte, typ Type, p Payload) error {
	return WriteFrame(w, version, typ, 0, p)
}

// WriteFrame encodes p with a correlation ID and writes the frame to w
// in a single Write call, using a pooled buffer.
func WriteFrame(w io.Writer, version byte, typ Type, corr uint16, p Payload) error {
	bp := GetBuf()
	frame, err := AppendFrame(*bp, version, typ, corr, p)
	if err != nil {
		PutBuf(bp)
		return err
	}
	_, err = w.Write(frame)
	*bp = frame[:0]
	PutBuf(bp)
	return err
}

// ReadFrame reads and validates one frame from r, returning the message
// type and payload bytes. The payload is freshly allocated; the
// correlation ID is validated but discarded — pipelined readers use
// ReadFrameBuf.
func ReadFrame(r io.Reader) (Type, []byte, error) {
	typ, _, payload, _, err := ReadFrameBuf(r, nil)
	return typ, payload, err
}

// FrameBuffered reports whether br already holds one whole frame — the
// header and the payload length it announces — so reading that frame
// cannot block. A responder that buffers its replies flushes them
// before any read for which this is false.
func FrameBuffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < HeaderSize {
		return false
	}
	hdr, _ := br.Peek(HeaderSize) // cannot fail: n ≥ HeaderSize bytes are buffered
	return uint64(n) >= HeaderSize+uint64(binary.BigEndian.Uint32(hdr[8:12]))
}

// ReadFrameBuf reads and validates one frame from r into buf, growing
// it as needed, and returns the message type, the correlation ID, the
// payload (a sub-slice of the returned buffer — valid only until the
// buffer's next use) and the buffer for reuse. Passing the returned
// buffer back in makes steady-state reads allocation-free.
//
// The payload read is bounded by the validated length prefix
// (≤ MaxPayload); every malformed header field is rejected before the
// payload is read. Nonzero flags are accepted only on v3 frames, where
// they are the correlation ID. io.EOF is returned unwrapped only when
// the stream ends cleanly before the first header byte; a header or
// payload cut short mid-frame is io.ErrUnexpectedEOF.
func ReadFrameBuf(r io.Reader, buf []byte) (typ Type, corr uint16, payload, nbuf []byte, err error) {
	// The header is read into the reusable buffer too — a stack array
	// would escape through the io.Reader interface and cost an
	// allocation per frame.
	if cap(buf) < HeaderSize {
		buf = make([]byte, 0, 4096)
	}
	hdr := buf[:HeaderSize]
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return TInvalid, 0, nil, buf, err // clean EOF at a frame boundary
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return TInvalid, 0, nil, buf, err
	}
	if binary.BigEndian.Uint32(hdr[0:4]) != Magic {
		return TInvalid, 0, nil, buf, ErrBadMagic
	}
	version := hdr[4]
	if version == 0 || version > Version {
		return TInvalid, 0, nil, buf, fmt.Errorf("%w: %d", ErrBadVersion, version)
	}
	typ = Type(hdr[5])
	if typ <= TInvalid || typ >= numTypes {
		return TInvalid, 0, nil, buf, fmt.Errorf("%w: %d", ErrBadType, hdr[5])
	}
	corr = binary.BigEndian.Uint16(hdr[6:8])
	if corr != 0 && version < 3 {
		return TInvalid, 0, nil, buf, ErrBadFlags
	}
	if typ.Packed() && version < 3 {
		return TInvalid, 0, nil, buf, fmt.Errorf("%w: packed %s frame stamped v%d", ErrBadVersion, typ, version)
	}
	n := binary.BigEndian.Uint32(hdr[8:12])
	if n > MaxPayload {
		return TInvalid, 0, nil, buf, fmt.Errorf("%w: %d bytes", ErrOversize, n)
	}
	want := binary.BigEndian.Uint32(hdr[12:16])
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload = buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return TInvalid, 0, nil, buf, err
	}
	if got := crc32.ChecksumIEEE(payload); got != want {
		return TInvalid, 0, nil, buf, fmt.Errorf("%w (want %08x, got %08x)", ErrChecksum, want, got)
	}
	return typ, corr, payload, buf[:cap(buf)], nil
}
