package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Version is the current snapshot format version. A loader refuses
// snapshots from a future version rather than misinterpreting them;
// older versions decode fine (every format change so far is additive).
// Version 2 added the trial-engine journal fields (Record.Trial/Spec/
// Pinned) and the quarantine failure-depth counter.
const Version = 2

// ErrNoSnapshot is returned by LoadLatest when the directory holds no
// readable snapshot at all.
var ErrNoSnapshot = errors.New("checkpoint: no valid snapshot")

// envelope is the on-disk frame around a snapshot payload:
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

// EncodeSnapshot frames payload (already-marshaled JSON) in a versioned,
// checksummed envelope ready for WriteFileAtomic. The payload goes into
// the frame as given, less any whitespace around it, so the checksum
// covers the very bytes DecodeSnapshot returns; for a json.Marshal
// payload the frame is byte-identical to json.Marshal of the envelope.
func EncodeSnapshot(payload []byte) ([]byte, error) {
	if !json.Valid(payload) {
		return nil, errors.New("checkpoint: snapshot payload is not valid JSON")
	}
	payload = bytes.TrimSpace(payload)
	b := make([]byte, 0, len(payload)+48)
	b = append(b, `{"version":`...)
	b = strconv.AppendInt(b, Version, 10)
	b = append(b, `,"crc32":`...)
	b = strconv.AppendUint(b, uint64(crc32.ChecksumIEEE(payload)), 10)
	b = append(b, `,"payload":`...)
	b = append(b, payload...)
	return append(b, '}'), nil
}

// DecodeSnapshot verifies the envelope and returns the payload bytes.
// It fails on malformed JSON, a version newer than this code, and any
// checksum mismatch.
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

// Snapshot and journal files are named by the iteration at which the
// snapshot was taken, zero-padded to genDigits so lexical order is
// numeric order. wal-N.log records iterations completed at or after
// iteration N, i.e. since snap-N.ckpt was written.
const (
	snapPrefix, snapSuffix = "snap-", ".ckpt"
	walPrefix, walSuffix   = "wal-", ".log"
	genDigits              = 12
	// keepSnapshots is how many snapshot generations survive pruning.
	// Two generations make the newest snapshot expendable: if it is
	// corrupt the loader falls back to the previous one and re-replays
	// the intervening journal.
	keepSnapshots = 2
)

// SnapPath returns the snapshot filename for a given iteration.
func SnapPath(dir string, iter int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%0*d%s", snapPrefix, genDigits, iter, snapSuffix))
}

// WalPath returns the journal filename for the generation starting at
// the given iteration.
func WalPath(dir string, iter int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%0*d%s", walPrefix, genDigits, iter, walSuffix))
}

// WriteSnapshot frames payload and writes it atomically as the snapshot
// for iteration iter, then prunes generations beyond keepSnapshots. A
// journal for the new generation is NOT created here; the journal opens
// lazily on the first append.
func WriteSnapshot(dir string, iter int, payload []byte) error {
	data, err := EncodeSnapshot(payload)
	if err != nil {
		return err
	}
	if err := WriteFileAtomic(SnapPath(dir, iter), data, 0o644); err != nil {
		return err
	}
	prune(dir)
	return nil
}

// listGenerations lists dir once and returns the snapshot and the
// journal generations in it, each ascending: os.ReadDir sorts by name,
// and the fixed-width names sort numerically. Files that do not match
// either naming pattern are ignored.
func listGenerations(dir string) (snaps, wals []int) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil
	}
	for _, e := range entries {
		name := e.Name()
		if n, ok := parseGen(name, snapPrefix, snapSuffix); ok {
			snaps = append(snaps, n)
		} else if n, ok := parseGen(name, walPrefix, walSuffix); ok {
			wals = append(wals, n)
		}
	}
	return snaps, wals
}

// parseGen returns the iteration in a generation file name made of
// prefix, genDigits decimal digits and suffix.
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

// Generations returns the snapshot iterations present in dir, ascending.
func Generations(dir string) []int {
	snaps, _ := listGenerations(dir)
	return snaps
}

// JournalGenerations returns the journal-file start iterations in dir,
// ascending.
func JournalGenerations(dir string) []int {
	_, wals := listGenerations(dir)
	return wals
}

// prune removes snapshot generations older than the keepSnapshots most
// recent, along with journal files older than the oldest kept snapshot
// (their contents are fully covered by newer snapshots).
func prune(dir string) {
	snaps, wals := listGenerations(dir)
	if len(snaps) <= keepSnapshots {
		return
	}
	cut := snaps[len(snaps)-keepSnapshots] // oldest kept generation
	for _, n := range snaps[:len(snaps)-keepSnapshots] {
		os.Remove(SnapPath(dir, n))
	}
	for _, n := range wals {
		if n < cut {
			os.Remove(WalPath(dir, n))
		}
	}
}

// LoadLatest returns the payload and iteration of the newest snapshot in
// dir that passes validation, falling back through older generations
// when the newest is truncated or fails its checksum. The error is
// ErrNoSnapshot when nothing loads; otherwise the error from the newest
// failed candidate is folded into the message for diagnosis.
func LoadLatest(dir string) (payload []byte, iter int, err error) {
	snaps := Generations(dir)
	var firstErr error
	for i := len(snaps) - 1; i >= 0; i-- {
		data, rerr := os.ReadFile(SnapPath(dir, snaps[i]))
		if rerr != nil {
			if firstErr == nil {
				firstErr = rerr
			}
			continue
		}
		p, derr := DecodeSnapshot(data)
		if derr != nil {
			if firstErr == nil {
				firstErr = derr
			}
			continue
		}
		return p, snaps[i], nil
	}
	if firstErr != nil {
		return nil, 0, fmt.Errorf("%w (newest candidate: %v)", ErrNoSnapshot, firstErr)
	}
	return nil, 0, ErrNoSnapshot
}
