package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Packed trial payloads (protocol v3), the one form of each trial
// message on the wire. The trial lifecycle — LeaseN/CompleteN/FailN and their responses —
// dominates wire traffic by orders of magnitude, so it gets a binary
// encoding instead of JSON:
// fixed-width 8-byte fields for values and epochs, unsigned varints for
// IDs, indices and counts, one flag byte where booleans cluster. The
// decisive property is not compactness but allocation behavior: every
// DecodeFrom below reuses the receiver's slices (including one shared
// float64 arena backing all Config slices of a batch), so a connection
// that recycles its request/response structs decodes frames with zero
// steady-state allocations, and AppendEncode composes into pooled frame
// buffers the same way. The alloc-count tests in packed_test.go pin
// both directions at 0 allocs/op.
//
// Wire grammar (all fixed-width integers big-endian, uvarint = LEB128):
//
//	LeaseP     = uvarint n, uvarint nFeat, nFeat × f64
//	TrialsP    = u64 epoch, byte flags(done|draining), uvarint retryMS,
//	             uvarint suggestMax, uvarint nTrials, nTrials × Trial
//	Trial      = uvarint id, uvarint algo, byte flags(spec|pinned|dl),
//	             [uvarint deadlineMS], uvarint nCfg, nCfg × f64
//	CompleteP  = u64 epoch, uvarint worker, uvarint n, n × (uvarint id, f64),
//	             [LeaseP]
//	FailP      = u64 epoch, uvarint n, n × (uvarint id, byte kind,
//	             f64 penalty, uvarint msgLen, msg bytes)
//	AckP       = uvarint nApplied, nApplied × uvarint,
//	             uvarint nDropped, nDropped × uvarint, [TrialsP]
//
// The bracketed tails fuse the next lease into a completion's round
// trip: a CompleteP that ends in a LeaseP asks for the next trials after
// its results are applied, and its AckP ends in the TrialsP that answers
// them. A frame without a tail is byte for byte the frame without the
// feature, so a decoder reads "no tail" from an empty remainder; a tail
// that is present but truncated is an error, never a silent zero.
//
// Counts are validated against the remaining payload length before any
// slice grows, so a hostile count cannot balloon memory (every element
// consumes at least one byte).

// Failure kinds on the packed wire, mirroring guard.Kind; a server
// charges FailOther and unknown kind bytes as invalid. FailReleased is
// not a failure: it hands back a lease the client held but never
// measured, which the engine takes back without a penalty.
const (
	FailOther    uint8 = 0
	FailPanic    uint8 = 1
	FailTimeout  uint8 = 2
	FailInvalid  uint8 = 3
	FailReleased uint8 = 4
)

// Packed-payload flag bits.
const (
	ptDone     = 1 << 0 // TrialsP: trial target reached, workers exit
	ptDraining = 1 << 1 // TrialsP: graceful shutdown, no new leases

	trSpec     = 1 << 0 // Trial: speculative proposal
	trPinned   = 1 << 1 // Trial: watchdog-pinned incumbent run
	trDeadline = 1 << 2 // Trial: a deadlineMS varint follows
)

func appendU64(b []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(b, v)
}

func appendF64(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}

func getUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, b, ErrShort
	}
	return v, b[n:], nil
}

func getU64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, b, ErrShort
	}
	return binary.BigEndian.Uint64(b), b[8:], nil
}

func getF64(b []byte) (float64, []byte, error) {
	v, rest, err := getU64(b)
	return math.Float64frombits(v), rest, err
}

func getByte(b []byte) (byte, []byte, error) {
	if len(b) < 1 {
		return 0, b, ErrShort
	}
	return b[0], b[1:], nil
}

// checkCount validates an element count against the remaining payload:
// every element encodes to at least minBytes bytes, so a count the
// payload cannot possibly hold is rejected before any allocation.
func checkCount(n uint64, rest []byte, minBytes int) error {
	if minBytes < 1 {
		minBytes = 1
	}
	if n > uint64(len(rest)/minBytes) {
		return fmt.Errorf("%w: count %d exceeds payload", ErrShort, n)
	}
	return nil
}

// PackedLeaseReq (frame TLeaseP) asks for up to N trials in one round
// trip. Features, when present, describes the input the worker is about
// to measure (input size, corpus class, ...): a contextual server routes
// the lease to the matching per-context engine, and other servers ignore
// it. Absent features mean the global context.
type PackedLeaseReq struct {
	N        int
	Features []float64
}

func (m *PackedLeaseReq) AppendEncode(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(max(m.N, 0)))
	buf = binary.AppendUvarint(buf, uint64(len(m.Features)))
	for _, f := range m.Features {
		buf = appendF64(buf, f)
	}
	return buf
}

func (m *PackedLeaseReq) DecodeFrom(buf []byte) error {
	n, rest, err := getUvarint(buf)
	if err != nil || n > math.MaxInt32 {
		return ErrShort
	}
	m.N = int(n)
	nf, rest, err := getUvarint(rest)
	if err != nil {
		return err
	}
	if err := checkCount(nf, rest, 8); err != nil {
		return err
	}
	m.Features = m.Features[:0]
	for i := uint64(0); i < nf; i++ {
		var f float64
		f, rest, err = getF64(rest)
		if err != nil {
			return err
		}
		m.Features = append(m.Features, f)
	}
	return nil
}

// PackedTrial is one leased trial in a PackedTrials batch. DeadlineMS
// is the lease deadline as Unix milliseconds (0 = no expiry), advisory
// for pacing heartbeats: the server's clock is authoritative. Config
// aliases the batch's shared arena: valid until the PackedTrials is
// decoded into again.
type PackedTrial struct {
	ID          uint64
	Algo        int
	DeadlineMS  int64
	Speculative bool
	Pinned      bool
	Config      []float64
}

// PackedTrials (frame TTrialsP) carries a leased batch. Epoch stamps the
// server process that issued these leases: completions must echo it, so
// a lease that survived a server restart can never complete a
// same-numbered trial of the resumed process. Done tells workers the
// server's trial target is reached and they should exit; RetryMS is a
// backoff hint when the batch is empty because a cap is reached;
// Draining marks an empty batch sent because the server is shutting
// down gracefully (reports are still accepted). SuggestMax, when
// nonzero, is the server's rebalancing push: this session sits at or
// above its fair share of the engine's in-flight capacity while other
// sessions starve, and the client should cap its next lease asks at
// this size. It is advisory; the server enforces the shrink itself.
type PackedTrials struct {
	Epoch      int64
	Done       bool
	Draining   bool
	RetryMS    int64
	SuggestMax int
	Trials     []PackedTrial

	// arena backs every Trials[i].Config; starts/lens are decode
	// scratch so Config sub-slices are cut only after the arena stops
	// growing.
	arena  []float64
	starts []int
	lens   []int
}

func (m *PackedTrials) AppendEncode(buf []byte) []byte {
	buf = appendU64(buf, uint64(m.Epoch))
	var flags byte
	if m.Done {
		flags |= ptDone
	}
	if m.Draining {
		flags |= ptDraining
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(max(m.RetryMS, 0)))
	buf = binary.AppendUvarint(buf, uint64(max(m.SuggestMax, 0)))
	buf = binary.AppendUvarint(buf, uint64(len(m.Trials)))
	for i := range m.Trials {
		tr := &m.Trials[i]
		buf = binary.AppendUvarint(buf, tr.ID)
		buf = binary.AppendUvarint(buf, uint64(max(tr.Algo, 0)))
		var tf byte
		if tr.Speculative {
			tf |= trSpec
		}
		if tr.Pinned {
			tf |= trPinned
		}
		if tr.DeadlineMS > 0 {
			tf |= trDeadline
		}
		buf = append(buf, tf)
		if tr.DeadlineMS > 0 {
			buf = binary.AppendUvarint(buf, uint64(tr.DeadlineMS))
		}
		buf = binary.AppendUvarint(buf, uint64(len(tr.Config)))
		for _, c := range tr.Config {
			buf = appendF64(buf, c)
		}
	}
	return buf
}

// reset empties m, keeping its slices' capacity for the next decode.
func (m *PackedTrials) reset() {
	*m = PackedTrials{Trials: m.Trials[:0], arena: m.arena[:0], starts: m.starts[:0], lens: m.lens[:0]}
}

func (m *PackedTrials) DecodeFrom(buf []byte) error {
	epoch, rest, err := getU64(buf)
	if err != nil {
		return err
	}
	m.Epoch = int64(epoch)
	flags, rest, err := getByte(rest)
	if err != nil {
		return err
	}
	m.Done = flags&ptDone != 0
	m.Draining = flags&ptDraining != 0
	retry, rest, err := getUvarint(rest)
	if err != nil || retry > math.MaxInt32 {
		return ErrShort
	}
	m.RetryMS = int64(retry)
	suggest, rest, err := getUvarint(rest)
	if err != nil || suggest > math.MaxInt32 {
		return ErrShort
	}
	m.SuggestMax = int(suggest)
	n, rest, err := getUvarint(rest)
	if err != nil {
		return err
	}
	if err := checkCount(n, rest, 4); err != nil {
		return err
	}
	m.Trials = m.Trials[:0]
	m.arena = m.arena[:0]
	m.starts = m.starts[:0]
	m.lens = m.lens[:0]
	for i := uint64(0); i < n; i++ {
		var tr PackedTrial
		tr.ID, rest, err = getUvarint(rest)
		if err != nil {
			return err
		}
		var algo uint64
		algo, rest, err = getUvarint(rest)
		if err != nil || algo > math.MaxInt32 {
			return ErrShort
		}
		tr.Algo = int(algo)
		var tf byte
		tf, rest, err = getByte(rest)
		if err != nil {
			return err
		}
		tr.Speculative = tf&trSpec != 0
		tr.Pinned = tf&trPinned != 0
		if tf&trDeadline != 0 {
			var dl uint64
			dl, rest, err = getUvarint(rest)
			if err != nil || dl > math.MaxInt64 {
				return ErrShort
			}
			tr.DeadlineMS = int64(dl)
		}
		var nc uint64
		nc, rest, err = getUvarint(rest)
		if err != nil {
			return err
		}
		if err := checkCount(nc, rest, 8); err != nil {
			return err
		}
		m.starts = append(m.starts, len(m.arena))
		m.lens = append(m.lens, int(nc))
		for j := uint64(0); j < nc; j++ {
			var c float64
			c, rest, err = getF64(rest)
			if err != nil {
				return err
			}
			m.arena = append(m.arena, c)
		}
		m.Trials = append(m.Trials, tr)
	}
	// Cut the Config views only now: the arena has stopped growing, so
	// the sub-slices stay valid.
	for i := range m.Trials {
		if m.lens[i] > 0 {
			m.Trials[i].Config = m.arena[m.starts[i] : m.starts[i]+m.lens[i]]
		} else {
			m.Trials[i].Config = nil
		}
	}
	return nil
}

// PackedResult is one measured trial in a PackedCompleteReq.
type PackedResult struct {
	ID    uint64
	Value float64
}

// PackedCompleteReq (frame TCompleteP) reports a batch of measured
// values — the single hottest message on the wire. Worker, when nonzero,
// identifies the reporting worker so the server can divide the values by
// that worker's calibrated speed factor (see CalibrateReq); zero reports
// raw costs. A contextual server routes completions by trial ID, so a
// result carries no feature vector.
//
// Next, when Next.N > 0, asks for up to Next.N trials under
// Next.Features, leased after the results are applied and returned in
// the ack's Next: one round trip per batch for a lockstep worker. With
// Next.N == 0 no tail is encoded.
type PackedCompleteReq struct {
	Epoch   int64
	Worker  uint64
	Results []PackedResult
	Next    PackedLeaseReq
}

func (m *PackedCompleteReq) AppendEncode(buf []byte) []byte {
	buf = appendU64(buf, uint64(m.Epoch))
	buf = binary.AppendUvarint(buf, m.Worker)
	buf = binary.AppendUvarint(buf, uint64(len(m.Results)))
	for i := range m.Results {
		buf = binary.AppendUvarint(buf, m.Results[i].ID)
		buf = appendF64(buf, m.Results[i].Value)
	}
	if m.Next.N > 0 {
		buf = m.Next.AppendEncode(buf)
	}
	return buf
}

func (m *PackedCompleteReq) DecodeFrom(buf []byte) error {
	epoch, rest, err := getU64(buf)
	if err != nil {
		return err
	}
	m.Epoch = int64(epoch)
	m.Worker, rest, err = getUvarint(rest)
	if err != nil {
		return err
	}
	n, rest, err := getUvarint(rest)
	if err != nil {
		return err
	}
	if err := checkCount(n, rest, 9); err != nil {
		return err
	}
	m.Results = m.Results[:0]
	for i := uint64(0); i < n; i++ {
		var r PackedResult
		r.ID, rest, err = getUvarint(rest)
		if err != nil {
			return err
		}
		r.Value, rest, err = getF64(rest)
		if err != nil {
			return err
		}
		m.Results = append(m.Results, r)
	}
	if len(rest) == 0 {
		m.Next.N, m.Next.Features = 0, m.Next.Features[:0]
		return nil
	}
	return m.Next.DecodeFrom(rest)
}

// PackedFail is one failed trial in a PackedFailReq. Msg allocates on
// decode when present; failures are off the steady-state hot path.
type PackedFail struct {
	ID      uint64
	Kind    uint8
	Penalty float64
	Msg     string
}

// PackedFailReq (frame TFailP) reports a batch of measurement failures.
type PackedFailReq struct {
	Epoch int64
	Fails []PackedFail
}

func (m *PackedFailReq) AppendEncode(buf []byte) []byte {
	buf = appendU64(buf, uint64(m.Epoch))
	buf = binary.AppendUvarint(buf, uint64(len(m.Fails)))
	for i := range m.Fails {
		f := &m.Fails[i]
		buf = binary.AppendUvarint(buf, f.ID)
		buf = append(buf, f.Kind)
		buf = appendF64(buf, f.Penalty)
		buf = binary.AppendUvarint(buf, uint64(len(f.Msg)))
		buf = append(buf, f.Msg...)
	}
	return buf
}

func (m *PackedFailReq) DecodeFrom(buf []byte) error {
	epoch, rest, err := getU64(buf)
	if err != nil {
		return err
	}
	m.Epoch = int64(epoch)
	n, rest, err := getUvarint(rest)
	if err != nil {
		return err
	}
	if err := checkCount(n, rest, 11); err != nil {
		return err
	}
	m.Fails = m.Fails[:0]
	for i := uint64(0); i < n; i++ {
		var f PackedFail
		f.ID, rest, err = getUvarint(rest)
		if err != nil {
			return err
		}
		f.Kind, rest, err = getByte(rest)
		if err != nil {
			return err
		}
		f.Penalty, rest, err = getF64(rest)
		if err != nil {
			return err
		}
		var ml uint64
		ml, rest, err = getUvarint(rest)
		if err != nil {
			return err
		}
		if ml > uint64(len(rest)) {
			return fmt.Errorf("%w: message length %d exceeds payload", ErrShort, ml)
		}
		f.Msg = string(rest[:ml])
		rest = rest[ml:]
		m.Fails = append(m.Fails, f)
	}
	return nil
}

// PackedAck (frame TAckP) answers PackedCompleteReq and PackedFailReq:
// Applied lists trial IDs whose report reached the tuner, Dropped lists
// IDs acknowledged but discarded — already completed, reclaimed after
// lease expiry, or from a different epoch. Both outcomes are success for
// the worker; Dropped only means the engine had already charged the
// trial.
//
// HasNext marks the answer to a completion's lease request: Next is then
// the batch a TLeaseP of the same request would have returned (trials,
// or Done, Draining or a busy hint with none). Without HasNext, Next is
// empty and no tail is encoded.
type PackedAck struct {
	Applied []uint64
	Dropped []uint64
	HasNext bool
	Next    PackedTrials
}

func appendIDList(buf []byte, ids []uint64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, id)
	}
	return buf
}

func decodeIDList(dst []uint64, buf []byte) ([]uint64, []byte, error) {
	n, rest, err := getUvarint(buf)
	if err != nil {
		return dst, buf, err
	}
	if err := checkCount(n, rest, 1); err != nil {
		return dst, buf, err
	}
	dst = dst[:0]
	for i := uint64(0); i < n; i++ {
		var id uint64
		id, rest, err = getUvarint(rest)
		if err != nil {
			return dst, buf, err
		}
		dst = append(dst, id)
	}
	return dst, rest, nil
}

func (m *PackedAck) AppendEncode(buf []byte) []byte {
	buf = appendIDList(buf, m.Applied)
	buf = appendIDList(buf, m.Dropped)
	if m.HasNext {
		buf = m.Next.AppendEncode(buf)
	}
	return buf
}

func (m *PackedAck) DecodeFrom(buf []byte) error {
	var err error
	m.Applied, buf, err = decodeIDList(m.Applied, buf)
	if err != nil {
		return err
	}
	m.Dropped, buf, err = decodeIDList(m.Dropped, buf)
	if err != nil {
		return err
	}
	m.HasNext = len(buf) > 0
	if !m.HasNext {
		m.Next.reset()
		return nil
	}
	return m.Next.DecodeFrom(buf)
}
