package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
)

// Version is the current checkpoint format version. A loader refuses
// snapshots from a future version rather than misinterpreting them;
// older versions decode fine.
//
//   - Version 2 added the trial-engine journal fields (Record.Trial/
//     Spec/Pinned) and the quarantine failure-depth counter.
//   - Version 3 moved snapshots into the journal: a snapshot is one
//     line of a journal segment (seg-*.log), not a snap-*.ckpt file
//     beside a wal-*.log per generation. Records are unchanged.
const Version = 3

// ErrNoSnapshot is returned by Load when the directory holds checkpoint
// state but no readable snapshot at all.
var ErrNoSnapshot = errors.New("checkpoint: no valid snapshot")

// envelope is the frame around a format-2 snapshot file's payload:
//
//	{"version":V,"crc32":C,"payload":P}
//
// The CRC is computed over the raw payload bytes exactly as they appear
// in the file, so any torn write or bit flip inside the payload is
// detected.
type envelope struct {
	Version int             `json:"version"`
	CRC32   uint32          `json:"crc32"`
	Payload json.RawMessage `json:"payload"`
}

// DecodeSnapshot verifies a format-2 snapshot file's envelope and
// returns the payload bytes. It fails on malformed JSON, a version newer
// than this code, and any checksum mismatch.
func DecodeSnapshot(data []byte) ([]byte, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("checkpoint: snapshot frame: %v", err)
	}
	if env.Version <= 0 || env.Version > Version {
		return nil, fmt.Errorf("checkpoint: unsupported snapshot version %d", env.Version)
	}
	// An absent payload must not sneak through the checksum: the CRC of
	// zero bytes is zero, which a payload-less frame trivially "matches".
	if len(env.Payload) == 0 {
		return nil, errors.New("checkpoint: snapshot has no payload")
	}
	if got := crc32.ChecksumIEEE(env.Payload); got != env.CRC32 {
		return nil, fmt.Errorf("checkpoint: snapshot checksum mismatch (want %08x, got %08x)", env.CRC32, got)
	}
	return env.Payload, nil
}

// Format-2 snapshot and journal files are named by the iteration at
// which the snapshot was taken, zero-padded to genDigits so lexical
// order is numeric order. wal-N.log records iterations completed at or
// after iteration N, i.e. since snap-N.ckpt was written. Format 3 only
// reads them; the first segment a resume writes replaces them.
const (
	snapPrefix, snapSuffix = "snap-", ".ckpt"
	walPrefix, walSuffix   = "wal-", ".log"
	genDigits              = 12
)

// SnapPath returns the format-2 snapshot filename for a given iteration.
func SnapPath(dir string, iter int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%0*d%s", snapPrefix, genDigits, iter, snapSuffix))
}

// WalPath returns the format-2 journal filename for the generation
// starting at the given iteration.
func WalPath(dir string, iter int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%0*d%s", walPrefix, genDigits, iter, walSuffix))
}

// list lists dir once and returns its segments and its format-2
// snapshot and journal generations, each ascending: os.ReadDir sorts by
// name, and the fixed-width names sort numerically. Files that match no
// naming pattern are ignored.
func list(dir string) (segs, snaps, wals []int) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil
	}
	for _, e := range entries {
		name := e.Name()
		if n, ok := parseGen(name, segPrefix, segSuffix); ok {
			segs = append(segs, n)
		} else if n, ok := parseGen(name, snapPrefix, snapSuffix); ok {
			snaps = append(snaps, n)
		} else if n, ok := parseGen(name, walPrefix, walSuffix); ok {
			wals = append(wals, n)
		}
	}
	return segs, snaps, wals
}

// parseGen returns the number in a file name made of prefix, genDigits
// decimal digits and suffix.
func parseGen(name, prefix, suffix string) (int, bool) {
	if len(name) != len(prefix)+genDigits+len(suffix) ||
		!strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n := 0
	for _, c := range []byte(name[len(prefix) : len(prefix)+genDigits]) {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// loadV2 fills st from a format-2 directory: the newest snapshot that
// passes validation — falling back through older generations when the
// newest is truncated or fails its checksum — the journal records since
// it, and the highest trial ID in any journal.
func loadV2(dir string, st *State) (*State, error) {
	_, snaps, wals := list(dir)
	var firstErr error
	for i := len(snaps) - 1; i >= 0; i-- {
		data, err := os.ReadFile(SnapPath(dir, snaps[i]))
		if err == nil {
			st.Payload, err = DecodeSnapshot(data)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		st.Iter = snaps[i]
		st.Records, st.Trial = readJournalsSince(dir, wals, st.Iter)
		return st, nil
	}
	return nil, fmt.Errorf("%w (newest candidate: %v)", ErrNoSnapshot, firstErr)
}

// readJournalsSince collects the records of every format-2 journal
// generation, in generation order, dropping records below iter, and
// returns them with the highest trial ID of any record read. Chaining
// generations this way means a fallback to an older snapshot still
// replays the full tail: the journals between the old snapshot and the
// crash are all still on disk (pruning only removed journals older than
// the oldest kept snapshot).
func readJournalsSince(dir string, wals []int, iter int) (out []Record, maxTrial uint64) {
	var recs []Record
	for _, g := range wals {
		rs, err := ReadJournal(WalPath(dir, g))
		if err != nil {
			continue
		}
		recs = append(recs, rs...)
	}
	for _, r := range recs {
		maxTrial = max(maxTrial, r.Trial)
	}
	// Records must be strictly increasing in Iter across the chain;
	// clip anything out of order or below iter (an older generation's
	// head after a fallback, or overlapping generations after a partial
	// prune). Drift sentinels are exempt — they share their Iter with
	// the observation after them (and with the first observation of a
	// fresh generation), so the strict-monotonic rule would silently
	// drop them.
	out = recs[:0]
	last := iter - 1
	for _, r := range recs {
		if r.Drift != "" {
			if r.Iter >= iter {
				out = append(out, r)
			}
			continue
		}
		if r.Iter > last {
			out = append(out, r)
			last = r.Iter
		}
	}
	return out, maxTrial
}
