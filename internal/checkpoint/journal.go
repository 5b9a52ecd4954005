package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"sync"
	"unicode/utf8"
)

// Record is one completed tuning iteration in the write-ahead journal.
// Value carries the measurement for successes and the penalty value the
// tuner observed for failures; FailKind distinguishes the two (empty for
// success) so replay can route the record through ObserveFailure.
//
// Trial, Spec and Pinned were added for the concurrent trial engine
// (format version 2): Trial is the engine's lease ticket (0 in journals
// written before every tuner issued trial IDs), Spec marks
// a speculative proposal that must not be replayed into the phase-one
// strategy, and Pinned marks a degradation-mode incumbent run that
// bypassed both phases. All three decode as zero values from version-1
// journals, which is exactly their sequential meaning.
// Drift sentinels: a record with a non-empty Drift is not an
// observation but a journaled selector reset by core's drift watchdog —
// Algo and Config are empty, and Iter is the iteration count at the
// moment the reset fired. DriftSeq is the tuner's monotonic reset
// sequence number, which makes replay idempotent (a reset already
// inside the snapshot, or re-fired deterministically by the replayed
// stream, is skipped); DriftArm, DriftKeep, DriftProbes and DriftP1
// carry the reset parameters so replay re-applies it verbatim. The
// fields were added inside format version 2 and are omitted when empty,
// so journals written before them read as "no drift".
//
// Contextual records: a contextual engine journals its context replicas
// into its global engine's log, and tags each such record with Ctx, the
// context ID. A tagged completion or failure carries the replica's
// algorithm, configuration, value, local trial, flags and fail kind, and
// a tagged drift sentinel is the replica's reset. A tagged record with
// an empty Algo is a context event: the birth of the context's replica,
// or, when Split is set, the split of that context into two children at
// feature dimension Split[0] and quantized bin Split[1]. In a contextual
// log Iter is the record's position: every record but a drift sentinel
// advances it, whichever engine wrote it. Both fields are omitted when
// empty, so a flat engine's records and segments are byte-identical to
// those written before the fields existed.
//
// Draws is the tuner's selector RNG draw count when the completion was
// journaled, so a replay restores the RNG to where it was live. A record
// with a non-zero Mark is not an observation but a trial-ID reservation:
// the engine has reserved every trial ID up to Mark, and a resumed one
// issues IDs above it. Like a drift sentinel it carries the iteration of
// the record after it. Both fields are omitted when zero, so records
// written before them read as "no draw count" and "no mark".
//
// appendRecord encodes a Record by hand, so a field added here must be
// added there too; TestAppendRecordMatchesJSON sets every field through
// reflection and fails until it is.
type Record struct {
	Iter     int    `json:"iter"`
	Algo     string `json:"algo"`
	Config   []F    `json:"config"`
	Value    F      `json:"value"`
	FailKind string `json:"fail,omitempty"`
	Trial    uint64 `json:"trial,omitempty"`
	Spec     bool   `json:"spec,omitempty"`
	Pinned   bool   `json:"pinned,omitempty"`
	Draws    uint64 `json:"draws,omitempty"`

	Drift       string `json:"drift,omitempty"`
	DriftSeq    uint64 `json:"dseq,omitempty"`
	DriftArm    int    `json:"darm,omitempty"`
	DriftKeep   F      `json:"dkeep,omitempty"`
	DriftProbes int    `json:"dprobes,omitempty"`
	DriftP1     bool   `json:"dp1,omitempty"`

	Ctx   string `json:"ctx,omitempty"`
	Split []F    `json:"split,omitempty"`

	Mark uint64 `json:"mark,omitempty"`
}

// Drift sentinel kinds (Record.Drift).
const (
	DriftDecay  = "decay"
	DriftRefork = "refork"
)

// Journal appends to one journal segment. Each line is
//
//	crc32hex <space> body <newline>
//
// so a torn final line (the common crash artifact) is detected and
// dropped by the reader rather than corrupting the replay. A record's
// body is the json.Marshal form of a Record, byte for byte, but encoded
// by hand; a snapshot's body frames a tuner state payload (see
// AppendSnapshot). Lines are made durable in groups: AppendBuffered and
// AppendSnapshot buffer, Sync writes everything buffered since the
// previous Sync in one write and fsyncs it, and Close syncs before it
// closes, so no buffered line is ever dropped silently.
type Journal struct {
	path  string
	f     File   // nil while closed: the next write reopens the segment
	buf   []byte // encoded lines not yet written, reused across writes
	size  int64  // bytes in the segment, written or buffered
	dirty bool   // bytes written since the last successful fsync
}

// maxPending bounds the lines a Journal holds unwritten: appends write
// them out early once they reach it, so one huge operation does not pin
// an equally huge buffer for the journal's lifetime. Trial engine
// batches stay far below it and cost one write per Sync.
const maxPending = 64 << 10

// File is the journal's handle on a segment file. Every journal write
// and sync goes through it.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// Opener is the file system beneath the journal: every segment opened,
// created or removed, and every directory fsync that makes a creation
// durable, goes through it. It is the seam crash-point tests use to
// stand in a disk that forgets unsynced bytes and unsynced directory
// entries on a simulated power cut (see package crashtest).
type Opener interface {
	// Open opens an existing segment for appending.
	Open(path string) (File, error)
	// Create creates a new, empty segment for appending; it fails when
	// path exists.
	Create(path string) (File, error)
	// SyncDir makes the entries of the files created in dir durable.
	SyncDir(dir string) error
	// Remove deletes a segment.
	Remove(path string) error
}

type osOpener struct{}

func (osOpener) Open(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osOpener) Create(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	preallocate(f, segmentCap.Load())
	return f, nil
}

func (osOpener) SyncDir(dir string) error { return syncDir(dir) }

func (osOpener) Remove(path string) error { return os.Remove(path) }

var (
	openerMu sync.Mutex
	opener   Opener = osOpener{}
)

// SetOpener routes every segment opened or created from now on through
// open (nil restores the operating system's files) and returns the
// previous opener. It is a test seam: nothing outside tests calls it.
func SetOpener(open Opener) Opener {
	if open == nil {
		open = osOpener{}
	}
	openerMu.Lock()
	defer openerMu.Unlock()
	prev := opener
	opener = open
	return prev
}

func currentOpener() Opener {
	openerMu.Lock()
	defer openerMu.Unlock()
	return opener
}

// OpenJournal opens segment seq in dir for appending, creating it —
// and making its directory entry durable — when absent. Tuners do not
// use it: their segments start with a snapshot line (see Roll).
func OpenJournal(dir string, seq int) (*Journal, error) {
	path := SegPath(dir, seq)
	op := currentOpener()
	f, err := op.Open(path)
	if os.IsNotExist(err) {
		if f, err = op.Create(path); err == nil {
			err = op.SyncDir(dir)
		}
	}
	if err != nil {
		if f != nil {
			f.Close()
		}
		return nil, err
	}
	j := &Journal{path: path, f: f}
	if st, err := os.Stat(path); err == nil {
		j.size = st.Size()
	}
	return j, nil
}

// Append writes one record and fsyncs, so the record survives an
// immediate crash.
func (j *Journal) Append(rec Record) error {
	if err := j.AppendBuffered(rec); err != nil {
		return err
	}
	return j.Sync()
}

// AppendBuffered adds one record to the journal's buffer without
// writing it. Writers group the records of one operation — a CompleteN
// batch, an Absorb — and call Sync once, paying a single write and a
// single fsync per operation instead of one write per record. A crash
// before the Sync loses at most the unsynced records, and any prefix of
// them may survive; the line CRC keeps a torn final
// record detectable either way. The error is that of an early write
// once maxPending bytes are waiting.
func (j *Journal) AppendBuffered(rec Record) error {
	n := len(j.buf)
	j.buf = appendLine(j.buf, &rec)
	return j.buffered(n)
}

// AppendSnapshot adds a snapshot line to the journal's buffer: the
// tuner state payload taken at iteration iter, and trial, the highest
// trial ID issued so far. Like a record, it reaches the file with
// the next Sync. The payload must be one line of JSON. It fails when
// the segment is no longer in its directory: a segment unlinked under
// an open journal still takes writes and fsyncs, and only its name
// shows that it is gone.
func (j *Journal) AppendSnapshot(iter int, trial uint64, payload []byte) error {
	if _, err := os.Stat(j.path); err != nil {
		return err
	}
	return j.appendSnapshot(iter, trial, payload)
}

func (j *Journal) appendSnapshot(iter int, trial uint64, payload []byte) error {
	if len(payload) == 0 || bytes.IndexByte(payload, '\n') >= 0 {
		return errors.New("checkpoint: snapshot payload is empty or spans lines")
	}
	n := len(j.buf)
	j.buf = appendSnapshotLine(j.buf, iter, trial, payload)
	return j.buffered(n)
}

// buffered accounts for the line appended to the buffer at n and
// writes the buffer out early once maxPending bytes are waiting.
func (j *Journal) buffered(n int) error {
	j.size += int64(len(j.buf) - n)
	if len(j.buf) >= maxPending {
		return j.write()
	}
	return nil
}

// Full reports whether the segment has reached the segment size cap
// (SegmentBytes): the tuner's next snapshot then starts a new segment.
func (j *Journal) Full() bool { return j.size >= segmentCap.Load() }

// write hands the buffered lines to the file in one Write, reopening
// the segment first when Close released it. The buffer is emptied
// whether or not the write succeeds, so a failing file cannot make it
// grow without bound; the lines of a failed write are lost, and its
// error says so.
func (j *Journal) write() error {
	if len(j.buf) == 0 {
		return nil
	}
	if j.f == nil {
		f, err := currentOpener().Open(j.path)
		if err != nil {
			j.buf = j.buf[:0]
			return err
		}
		j.f = f
	}
	j.dirty = true
	_, err := j.f.Write(j.buf)
	j.buf = j.buf[:0]
	return err
}

// Sync writes the lines buffered since the previous Sync and flushes
// them to stable storage: one write and one fsync. It does nothing when
// no line is waiting.
func (j *Journal) Sync() error {
	if j == nil {
		return nil
	}
	if err := j.write(); err != nil {
		return err
	}
	if !j.dirty {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.dirty = false
	return nil
}

// Close syncs any buffered lines and closes the segment file. The
// journal stays usable: its next write reopens the segment.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	err := j.Sync()
	if j.f != nil {
		if cerr := j.f.Close(); err == nil {
			err = cerr
		}
		j.f = nil
	}
	return err
}

// appendLine appends rec's journal line to b.
func appendLine(b []byte, rec *Record) []byte {
	start := len(b)
	b = append(b, "00000000 "...)
	b = appendRecord(b, rec)
	return frameLine(b, start)
}

// appendSnapshotLine appends a snapshot line to b. Its body is
//
//	{"version":V,"iter":N,"trial":T,"state":P}
//
// with P the tuner state payload exactly as given.
func appendSnapshotLine(b []byte, iter int, trial uint64, payload []byte) []byte {
	start := len(b)
	b = append(b, "00000000 "...)
	b = append(b, `{"version":`...)
	b = strconv.AppendInt(b, Version, 10)
	b = append(b, `,"iter":`...)
	b = strconv.AppendInt(b, int64(iter), 10)
	b = append(b, `,"trial":`...)
	b = strconv.AppendUint(b, trial, 10)
	b = append(b, `,"state":`...)
	b = append(b, payload...)
	b = append(b, '}')
	return frameLine(b, start)
}

// frameLine completes the line started at b[start:]: the CRC field
// reserved there is filled in with the checksum of the body behind it,
// and the newline is appended.
func frameLine(b []byte, start int) []byte {
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.ChecksumIEEE(b[start+9:]))
	hex.Encode(b[start:start+8], sum[:])
	return append(b, '\n')
}

// appendRecord appends the JSON encoding of rec to b. The output is
// byte-identical to json.Marshal(rec): the same field order, omitempty
// rules, float format and string escaping (HTML-safe, invalid UTF-8 as
// U+FFFD), so journals read the same whichever encoder wrote them.
func appendRecord(b []byte, rec *Record) []byte {
	b = append(b, `{"iter":`...)
	b = strconv.AppendInt(b, int64(rec.Iter), 10)
	b = append(b, `,"algo":`...)
	b = AppendString(b, rec.Algo)
	b = append(b, `,"config":`...)
	b = AppendFloats(b, rec.Config)
	b = append(b, `,"value":`...)
	b = AppendF(b, rec.Value)
	if rec.FailKind != "" {
		b = append(b, `,"fail":`...)
		b = AppendString(b, rec.FailKind)
	}
	if rec.Trial != 0 {
		b = append(b, `,"trial":`...)
		b = strconv.AppendUint(b, rec.Trial, 10)
	}
	if rec.Spec {
		b = append(b, `,"spec":true`...)
	}
	if rec.Pinned {
		b = append(b, `,"pinned":true`...)
	}
	if rec.Draws != 0 {
		b = append(b, `,"draws":`...)
		b = strconv.AppendUint(b, rec.Draws, 10)
	}
	if rec.Drift != "" {
		b = append(b, `,"drift":`...)
		b = AppendString(b, rec.Drift)
	}
	if rec.DriftSeq != 0 {
		b = append(b, `,"dseq":`...)
		b = strconv.AppendUint(b, rec.DriftSeq, 10)
	}
	if rec.DriftArm != 0 {
		b = append(b, `,"darm":`...)
		b = strconv.AppendInt(b, int64(rec.DriftArm), 10)
	}
	if rec.DriftKeep != 0 { // omitempty drops ±0; NaN is not empty
		b = append(b, `,"dkeep":`...)
		b = AppendF(b, rec.DriftKeep)
	}
	if rec.DriftProbes != 0 {
		b = append(b, `,"dprobes":`...)
		b = strconv.AppendInt(b, int64(rec.DriftProbes), 10)
	}
	if rec.DriftP1 {
		b = append(b, `,"dp1":true`...)
	}
	if rec.Ctx != "" {
		b = append(b, `,"ctx":`...)
		b = AppendString(b, rec.Ctx)
	}
	if len(rec.Split) > 0 {
		b = append(b, `,"split":`...)
		b = AppendFloats(b, rec.Split)
	}
	if rec.Mark != 0 {
		b = append(b, `,"mark":`...)
		b = strconv.AppendUint(b, rec.Mark, 10)
	}
	return append(b, '}')
}

// AppendString appends s as a JSON string escaped the way json.Marshal
// escapes it: quote, backslash and control characters, the HTML
// characters <, > and &, U+2028 and U+2029, and each byte of invalid
// UTF-8 as \ufffd.
func AppendString(b []byte, s string) []byte {
	const hexDigits = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// ReadJournal returns the valid records of one journal file in order:
// a segment's records, its snapshot lines left out. A damaged line — a bad checksum, a body that does not
// decode, a missing CRC prefix — ends the read unless the next valid
// line carries the iteration the damaged one would have (see
// readState), because everything after a torn write is untrustworthy.
// Blank lines are skipped (they can appear when an append was cut
// before the body). A missing file is an empty journal.
func ReadJournal(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	return readRecords(f)
}

// readRecords is ReadJournal over a file's contents.
func readRecords(rd io.Reader) ([]Record, error) {
	var (
		recs []Record
		seq  readState
	)
	err := scanLines(rd, func(l line) {
		switch l.kind {
		case lineDamaged:
			seq.damaged()
		case lineSnapshot:
			seq.snapshot(l.iter)
		case lineRecord:
			var rec Record
			if seq.record(l.iter, l.sentinel) && decodeRecord(l.body, &rec) == nil {
				recs = append(recs, rec)
			}
		}
	})
	return recs, err
}
