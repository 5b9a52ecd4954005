package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash/crc32"
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
// (format version 2): Trial is the engine's lease ticket (0 for
// sequential tuners, whose journals have no ticket concept), Spec marks
// a speculative proposal that must not be replayed into the phase-one
// strategy, and Pinned marks a degradation-mode incumbent run that
// bypassed both phases. All three decode as zero values from version-1
// journals, which is exactly their sequential meaning.
// Drift sentinels (format version 3): a record with a non-empty Drift
// is not an observation but a journaled selector reset by core's drift
// watchdog — Algo and Config are empty, and Iter is the iteration count
// at the moment the reset fired. DriftSeq is the tuner's monotonic
// reset sequence number, which makes replay idempotent (a reset already
// inside the snapshot, or re-fired deterministically by the replayed
// stream, is skipped); DriftArm, DriftKeep, DriftProbes and DriftP1
// carry the reset parameters so replay re-applies it verbatim. Version
// ≤ 2 readers never see these fields; version-3 readers see them as
// zero values on old journals, i.e. "no drift".
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

	Drift       string `json:"drift,omitempty"`
	DriftSeq    uint64 `json:"dseq,omitempty"`
	DriftArm    int    `json:"darm,omitempty"`
	DriftKeep   F      `json:"dkeep,omitempty"`
	DriftProbes int    `json:"dprobes,omitempty"`
	DriftP1     bool   `json:"dp1,omitempty"`
}

// Drift sentinel kinds (Record.Drift).
const (
	DriftDecay  = "decay"
	DriftRefork = "refork"
)

// Journal is an append-only record of the iterations completed since
// the last snapshot. Each line is
//
//	crc32hex <space> json-record <newline>
//
// so a torn final line (the common crash artifact) is detected and
// dropped by the reader rather than corrupting the replay. The record
// is the json.Marshal form of a Record, byte for byte, but encoded by
// hand. Records are made durable in groups: AppendBuffered buffers,
// Sync writes everything buffered since the previous Sync in one write
// and fsyncs it, and Close syncs before it closes, so no buffered
// record is ever dropped silently.
type Journal struct {
	f     File
	buf   []byte // encoded lines not yet written, reused across writes
	dirty bool   // bytes written since the last successful fsync
}

// maxPending bounds the lines a Journal holds unwritten: AppendBuffered
// writes them out early once they reach it, so one huge operation does
// not pin an equally huge buffer for the journal's lifetime. Trial
// engine batches stay far below it and cost one write per Sync.
const maxPending = 64 << 10

// File is the journal's handle on its file. Every journal write and
// sync goes through it, which is the seam crash-point tests use to
// stand in a file that forgets its unsynced bytes on a simulated power
// cut (see package crashtest).
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// Opener opens the journal file at path for appending, creating it
// when absent.
type Opener func(path string) (File, error)

var (
	openerMu sync.Mutex
	opener   Opener = osOpen
)

func osOpen(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// SetOpener routes every journal opened from now on through open (nil
// restores the operating system's files) and returns the previous
// opener. It is a test seam: nothing outside tests calls it.
func SetOpener(open Opener) Opener {
	if open == nil {
		open = osOpen
	}
	openerMu.Lock()
	defer openerMu.Unlock()
	prev := opener
	opener = open
	return prev
}

// OpenJournal opens (creating if absent) the journal for the generation
// starting at iteration iter, positioned for appending.
func OpenJournal(dir string, iter int) (*Journal, error) {
	openerMu.Lock()
	open := opener
	openerMu.Unlock()
	f, err := open(WalPath(dir, iter))
	if err != nil {
		return nil, err
	}
	return &Journal{f: f}, nil
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
// batch, an Absorb, a sharded fold — and call Sync once, paying a single
// write and a single fsync per operation instead of one write per
// record. A crash before the Sync loses at most the unsynced records,
// and any prefix of them may survive; the line CRC keeps a torn final
// record detectable either way. The error is that of an early write
// once maxPending bytes are waiting.
func (j *Journal) AppendBuffered(rec Record) error {
	j.buf = appendLine(j.buf, &rec)
	if len(j.buf) >= maxPending {
		return j.write()
	}
	return nil
}

// write hands the buffered lines to the file in one Write. The buffer
// is emptied whether or not the write succeeds, so a failing file
// cannot make it grow without bound; the records of a failed write are
// lost, and its error says so.
func (j *Journal) write() error {
	if len(j.buf) == 0 {
		return nil
	}
	j.dirty = true
	_, err := j.f.Write(j.buf)
	j.buf = j.buf[:0]
	return err
}

// Sync writes the records buffered since the previous Sync and flushes
// them to stable storage: one write and one fsync. It does nothing when
// no record is waiting.
func (j *Journal) Sync() error {
	if j == nil || j.f == nil {
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

// appendLine appends rec's journal line to b. The CRC field is reserved
// first and filled in place once the record body is encoded behind it.
func appendLine(b []byte, rec *Record) []byte {
	start := len(b)
	b = append(b, "00000000 "...)
	b = appendRecord(b, rec)
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

// Close syncs any buffered records and closes the underlying file.
func (j *Journal) Close() error {
	if j == nil || j.f == nil {
		return nil
	}
	err := j.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadJournal returns the valid records of one journal file in order.
// Reading stops at the first damaged line — a bad checksum, unparsable
// JSON, or a missing CRC prefix — because everything after a torn write
// is untrustworthy. Blank lines are skipped (they can appear when an
// append was cut before the body). A missing file is an empty journal.
func ReadJournal(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()

	var recs []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if len(line) < 9 || line[8] != ' ' {
			break
		}
		var sum [4]byte
		if _, err := hex.Decode(sum[:], line[:8]); err != nil {
			break
		}
		body := line[9:]
		if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(sum[:]) {
			break
		}
		var rec Record
		if err := json.Unmarshal(body, &rec); err != nil {
			break
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// ReadJournalsSince collects the records of every journal generation
// starting at or after iter, in generation order, dropping records below
// iter. Chaining generations this way means a fallback to an older
// snapshot still replays the full tail: the journals between the old
// snapshot and the crash are all still on disk (pruning only removes
// journals older than the oldest kept snapshot).
func ReadJournalsSince(dir string, iter int) []Record {
	var recs []Record
	for _, g := range JournalGenerations(dir) {
		if g < iter {
			// An older generation can still contain records >= iter
			// when iter's own snapshot was corrupt and we fell back:
			// include its tail.
			rs, err := ReadJournal(WalPath(dir, g))
			if err != nil {
				continue
			}
			for _, r := range rs {
				if r.Iter >= iter {
					recs = append(recs, r)
				}
			}
			continue
		}
		rs, err := ReadJournal(WalPath(dir, g))
		if err != nil {
			continue
		}
		recs = append(recs, rs...)
	}
	// Defensive: records must be strictly increasing in Iter across the
	// chain; clip anything out of order (overlapping generations after
	// a partial prune). Drift sentinels are exempt — they share their
	// Iter with the observation that triggered them (and with the first
	// observation of a fresh generation), so the strict-monotonic rule
	// would silently drop them.
	out := recs[:0]
	last := iter - 1
	for _, r := range recs {
		if r.Drift != "" {
			out = append(out, r)
			continue
		}
		if r.Iter > last {
			out = append(out, r)
			last = r.Iter
		}
	}
	return out
}

// MaxJournalTrial scans every journal generation in dir for the highest
// trial ID ever journaled — including records already folded into a
// snapshot, which ReadJournalsSince filters out. A resuming engine uses
// it to keep fresh trial IDs disjoint from everything a previous
// incarnation issued.
func MaxJournalTrial(dir string) uint64 {
	var max uint64
	for _, g := range JournalGenerations(dir) {
		rs, err := ReadJournal(WalPath(dir, g))
		if err != nil {
			continue
		}
		for _, r := range rs {
			if r.Trial > max {
				max = r.Trial
			}
		}
	}
	return max
}
