package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
)

// SegmentBytes is the segment size cap: once a segment holds this many
// bytes, the tuner's next snapshot starts a new segment instead of
// appending to it. A roll keeps two segments, so the cap bounds both
// the disk a tuner keeps and the bytes a restart scans.
const SegmentBytes = 1 << 20

var segmentCap atomic.Int64

func init() { segmentCap.Store(SegmentBytes) }

// SetSegmentBytes replaces the segment size cap (n ≤ 0 restores
// SegmentBytes) and returns the previous one. It is a test seam, like
// SetOpener: crash-point tests shrink the cap so that power cuts land on
// segment rolls. Nothing outside tests calls it.
func SetSegmentBytes(n int64) int64 {
	if n <= 0 {
		n = SegmentBytes
	}
	return segmentCap.Swap(n)
}

// Segments are named by a sequence number, zero-padded to genDigits so
// lexical order is numeric order.
const segPrefix, segSuffix = "seg-", ".log"

// SegPath returns the filename of segment seq.
func SegPath(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%0*d%s", segPrefix, genDigits, seq, segSuffix))
}

// Segments returns the segment sequence numbers present in dir,
// ascending.
func Segments(dir string) []int {
	segs, _, _ := list(dir)
	return segs
}

// Exists reports whether dir holds checkpoint state: a segment with
// bytes in it, or a format-2 snapshot. An empty segment holds nothing —
// its creation was cut before the first fsync — and neither does a
// missing directory.
func Exists(dir string) bool {
	segs, snaps, _ := list(dir)
	if len(snaps) > 0 {
		return true
	}
	for _, s := range segs {
		if st, err := os.Stat(SegPath(dir, s)); err == nil && st.Size() > 0 {
			return true
		}
	}
	return false
}

// Roll starts segment seq in dir with a snapshot line — the payload
// taken at iteration iter, and trial, the highest trial ID issued so
// far — and returns the journal appending to it. The segment is created,
// written and fsynced, and its directory is fsynced, before anything is
// deleted: only then do the segments older than the previous one go,
// together with any format-2 files, so a damaged opening snapshot can
// still fall back to the previous segment. On failure the new segment is
// removed and the directory is left as it was.
func Roll(dir string, seq, iter int, trial uint64, payload []byte) (*Journal, error) {
	op := currentOpener()
	path := SegPath(dir, seq)
	f, err := op.Create(path)
	if err != nil {
		return nil, err
	}
	j := &Journal{path: path, f: f}
	err = j.appendSnapshot(iter, trial, payload)
	if err == nil {
		err = j.Sync()
	}
	if err == nil {
		err = op.SyncDir(dir)
	}
	if err != nil {
		// The tuner goes on journaling into the previous segment, so
		// the failed one must not outlive the call: read after it, its
		// older snapshot would hide those records.
		f.Close()
		op.Remove(path)
		return nil, err
	}
	prune(op, dir, seq)
	return j, nil
}

// prune deletes the segments below seq except the newest one that opens
// with a valid snapshot line — the previous segment, unless a crash cut
// a roll short — and every format-2 snapshot and journal file.
func prune(op Opener, dir string, seq int) {
	segs, snaps, wals := list(dir)
	keep := -1
	for i := len(segs) - 1; i >= 0 && keep < 0; i-- {
		if s := segs[i]; s < seq && opensWithSnapshot(SegPath(dir, s)) {
			keep = s
		}
	}
	for _, s := range segs {
		if s < seq && s != keep {
			op.Remove(SegPath(dir, s))
		}
	}
	for _, g := range snaps {
		op.Remove(SnapPath(dir, g))
	}
	for _, g := range wals {
		op.Remove(WalPath(dir, g))
	}
}

// opensWithSnapshot reports whether the segment at path starts with a
// valid snapshot line.
func opensWithSnapshot(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	first, err := bufio.NewReader(f).ReadBytes('\n')
	if err != nil {
		return false
	}
	return classify(1, 0, first[:len(first)-1]).kind == lineSnapshot
}

// State is what a resume reads from a checkpoint directory: the newest
// valid snapshot and the journal records after it.
type State struct {
	Payload []byte   // the snapshot's tuner state; nil when dir holds no state
	Iter    int      // iteration the snapshot was taken at
	Trial   uint64   // highest trial ID the snapshot carries or a record after it holds
	Records []Record // the records after the snapshot, in journal order
	Seq     int      // newest segment's sequence number; 0 when there is none
}

// Load reads the state a resume restores from dir. It streams the
// segments oldest first — the newest alone when it holds a valid
// snapshot — checks every line's CRC, keeps the last valid snapshot
// line and the records after it, and decodes only those. A damaged
// newest snapshot therefore falls back to the one before it, even in
// the previous segment, with the records in between (see readState).
// A directory whose segments hold no valid snapshot but that holds
// format-2 snapshots — one whose first segment was cut short — is read
// as format 2: the newest valid snap-*.ckpt and the wal-*.log records
// after it.
//
// A directory with no state — missing, empty, or holding only empty
// segments — yields a State with a nil Payload. One whose state holds
// no valid snapshot yields ErrNoSnapshot.
func Load(dir string) (*State, error) {
	segs, snaps, _ := list(dir)
	st := &State{}
	var r resumeReader
	if len(segs) > 0 {
		st.Seq = segs[len(segs)-1]
		// Lines before the last valid snapshot line do not change the
		// state, so the newest segment alone decides it whenever it
		// holds one — as it does unless its opening snapshot is damaged.
		if err := r.readSegments(dir, segs[len(segs)-1:]); err != nil {
			return nil, err
		}
		if !r.found && len(segs) > 1 {
			r = resumeReader{}
			if err := r.readSegments(dir, segs); err != nil {
				return nil, err
			}
		}
	}
	switch {
	case r.found:
		r.fill(st)
		return st, nil
	case len(snaps) > 0:
		return loadV2(dir, st)
	case r.lines == 0:
		return st, nil
	}
	return nil, fmt.Errorf("%w in %d segments (%d damaged lines)", ErrNoSnapshot, len(segs), r.damaged)
}

// resumeReader is Load's pass over the segments: it holds the last
// valid snapshot and the raw bodies of the records kept after it — at
// most one snapshot interval of records.
type resumeReader struct {
	seq     readState
	found   bool
	iter    int
	trial   uint64
	state   []byte // the last valid snapshot's payload, copied
	held    []byte // record bodies kept after it, one per line
	lines   int
	damaged int
}

// readSegments reads the segments seqs of dir, in order.
func (r *resumeReader) readSegments(dir string, seqs []int) error {
	for _, s := range seqs {
		f, err := os.Open(SegPath(dir, s))
		if err != nil {
			return err
		}
		err = r.read(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

func (r *resumeReader) read(rd io.Reader) error {
	return scanLines(rd, func(l line) {
		r.lines++
		switch l.kind {
		case lineDamaged:
			r.damaged++
			r.seq.damaged()
		case lineSnapshot:
			r.seq.snapshot(l.iter)
			r.found, r.iter, r.trial = true, l.iter, l.trial
			r.state = append(r.state[:0], l.state...)
			r.held = r.held[:0]
		case lineRecord:
			if r.seq.record(l.iter, l.drift) {
				r.held = append(append(r.held, l.body...), '\n')
			}
		}
	})
}

// fill decodes the held records into st. A body that passed its CRC
// but does not decode ends them, as a damaged line would.
func (r *resumeReader) fill(st *State) {
	st.Payload, st.Iter, st.Trial = r.state, r.iter, r.trial
	for b := r.held; len(b) > 0; {
		i := bytes.IndexByte(b, '\n')
		var rec Record
		if decodeRecord(b[:i], &rec) != nil {
			break
		}
		st.Records = append(st.Records, rec)
		st.Trial = max(st.Trial, rec.Trial)
		b = b[i+1:]
	}
}

// readState follows the iteration sequence of a journal read line by
// line, and rules on damaged lines by what follows them. A record
// advances the iteration; a snapshot line does not, and a drift
// sentinel carries the iteration of the record after it. A damaged
// line whose next valid line carries the iteration it would have
// carried held no record: it was a snapshot line, or a torn tail that a
// resume rolled past, and the read skips it. A damaged line followed by
// anything else hid a record, so the records after it are dropped
// until the next valid snapshot line restores the whole state.
type readState struct {
	expect  int  // iteration of the next record, once started
	started bool // a valid line has fixed expect
	pending bool // a damaged line awaits the next valid line's verdict
	broken  bool // records are dropped until the next valid snapshot
}

func (s *readState) damaged() {
	if !s.broken {
		s.pending = true
	}
}

func (s *readState) snapshot(iter int) {
	*s = readState{expect: iter, started: true}
}

// record reports whether the record at iter (a drift sentinel when
// drift) continues the read.
func (s *readState) record(iter int, drift bool) bool {
	if s.broken {
		return false
	}
	if s.pending {
		s.pending = false
		if s.started && iter != s.expect {
			s.broken = true
			return false
		}
	}
	s.started = true
	s.expect = iter + 1
	if drift {
		s.expect = iter
	}
	return true
}

// lineKind classifies a journal line.
type lineKind int

const (
	lineBlank    lineKind = iota
	lineDamaged           // bad CRC prefix or checksum, or an undecodable body
	lineRecord            // a Record
	lineSnapshot          // a snapshot of this format version or older
)

// line is one journal line as scanLines classifies it.
type line struct {
	n     int    // 1-based line number
	off   int    // byte offset of the line in its file
	raw   []byte // the line, newline excluded
	kind  lineKind
	body  []byte // the checksummed body of a record or snapshot line
	iter  int    // record or snapshot iteration
	drift bool   // the record is a drift sentinel
	trial uint64 // snapshot: highest trial ID issued
	state []byte // snapshot: the tuner state payload
}

// scanLines classifies every line rd holds, in order, and hands it to
// fn. It streams: it holds one line at a time, and the slices in a line
// are only valid until fn returns.
func scanLines(rd io.Reader, fn func(line)) error {
	br := bufio.NewReaderSize(rd, 64<<10)
	var long []byte // a line longer than br's buffer, gathered
	n, off := 0, 0
	for {
		chunk, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long, chunk...)
			continue
		}
		raw := chunk
		if len(long) > 0 {
			long = append(long, chunk...)
			raw = long
		}
		if len(raw) > 0 {
			n++
			fn(classify(n, off, bytes.TrimSuffix(raw, []byte("\n"))))
			off += len(raw)
		}
		long = long[:0]
		switch {
		case err == io.EOF:
			return nil
		case err != nil:
			return err
		}
	}
}

// snapshotTag starts the body of every snapshot line and of no record.
var snapshotTag = []byte(`{"version":`)

func classify(n, off int, raw []byte) line {
	l := line{n: n, off: off, raw: raw, kind: lineDamaged}
	t := bytes.TrimSpace(raw)
	if len(t) == 0 {
		l.kind = lineBlank
		return l
	}
	if len(t) < 9 || t[8] != ' ' {
		return l
	}
	var sum [4]byte
	if _, err := hex.Decode(sum[:], t[:8]); err != nil {
		return l
	}
	body := t[9:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(sum[:]) {
		return l
	}
	l.body = body
	if bytes.HasPrefix(body, snapshotTag) {
		if iter, trial, state, ok := parseSnapshotLine(body); ok {
			l.kind, l.iter, l.trial, l.state = lineSnapshot, iter, trial, state
		}
		return l
	}
	if iter, drift, ok := recordIter(body); ok {
		l.kind, l.iter, l.drift = lineRecord, iter, drift
	}
	return l
}

// parseSnapshotLine splits a snapshot line's body, as appendSnapshotLine
// writes it, into its fields. A version newer than this code's fails.
func parseSnapshotLine(body []byte) (iter int, trial uint64, state []byte, ok bool) {
	p := parser{b: body}
	if !p.lit(`{"version":`) {
		return 0, 0, nil, false
	}
	v, ok := p.int()
	if !ok || v <= 0 || v > Version || !p.lit(`,"iter":`) {
		return 0, 0, nil, false
	}
	if iter, ok = p.int(); !ok || !p.lit(`,"trial":`) {
		return 0, 0, nil, false
	}
	if trial, ok = p.uint(); !ok || !p.lit(`,"state":`) {
		return 0, 0, nil, false
	}
	state = body[p.i : len(body)-1]
	if len(state) == 0 || body[len(body)-1] != '}' {
		return 0, 0, nil, false
	}
	return iter, trial, state, true
}

// SegmentInfo summarizes one segment, or any journal file, for
// inspection.
type SegmentInfo struct {
	Snapshots []SnapshotLine // the valid snapshot lines, in file order
	Records   int            // valid record lines
	Lines     int            // lines, blank and damaged ones included
	Damaged   int            // line number of the first damaged line; 0 when none
}

// SnapshotLine locates one valid snapshot line in its file.
type SnapshotLine struct {
	Line   int    // 1-based line number
	Offset int64  // byte offset of the line's first byte
	Len    int    // the line's length, newline excluded
	Iter   int    // iteration the snapshot was taken at
	Trial  uint64 // highest trial ID issued when it was taken
}

// InspectSegment reads the journal file at path and summarizes its
// lines. Unlike Load it does not follow the iteration sequence: every
// line is reported as its checksum and format leave it.
func InspectSegment(path string) (SegmentInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return SegmentInfo{}, err
	}
	defer f.Close()
	var info SegmentInfo
	err = scanLines(f, func(l line) {
		info.Lines = l.n
		switch l.kind {
		case lineDamaged:
			if info.Damaged == 0 {
				info.Damaged = l.n
			}
		case lineRecord:
			info.Records++
		case lineSnapshot:
			info.Snapshots = append(info.Snapshots, SnapshotLine{
				Line: l.n, Offset: int64(l.off), Len: len(l.raw), Iter: l.iter, Trial: l.trial,
			})
		}
	})
	return info, err
}
