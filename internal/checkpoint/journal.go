package checkpoint

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"strings"
	"sync"
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
// dropped by the reader rather than corrupting the replay. Records are
// made durable in groups: AppendBuffered writes, Sync fsyncs everything
// written since the previous Sync, and Close syncs before it closes, so
// no buffered record is ever dropped silently.
type Journal struct {
	f     File
	buf   []byte // line buffer, reused across appends
	dirty bool   // records written since the last successful Sync
}

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

// AppendBuffered writes one record without fsyncing. Writers group the
// records of one operation — a CompleteN batch, an Absorb, a sharded
// fold — and call Sync once, paying a single fsync per operation
// instead of one per record. A crash before the Sync loses at most the
// unsynced records; the line CRC keeps a torn final record detectable
// either way.
func (j *Journal) AppendBuffered(rec Record) error {
	body, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	j.buf = fmt.Appendf(j.buf[:0], "%08x %s\n", crc32.ChecksumIEEE(body), body)
	j.dirty = true
	_, err = j.f.Write(j.buf)
	return err
}

// Sync flushes the records written since the previous Sync to stable
// storage. It does nothing when no record is waiting.
func (j *Journal) Sync() error {
	if j == nil || j.f == nil || !j.dirty {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.dirty = false
	return nil
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
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var sum uint32
		sp := strings.IndexByte(line, ' ')
		if sp != 8 {
			break
		}
		if _, err := fmt.Sscanf(line[:sp], "%08x", &sum); err != nil {
			break
		}
		body := line[sp+1:]
		if crc32.ChecksumIEEE([]byte(body)) != sum {
			break
		}
		var rec Record
		if err := json.Unmarshal([]byte(body), &rec); err != nil {
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
