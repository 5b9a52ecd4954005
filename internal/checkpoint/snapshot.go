package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
)

// Version is the current checkpoint format version, the only one a
// loader reads. A snapshot line of a newer version counts as damage
// rather than being misinterpreted.
//
//   - Version 2 added the trial-engine journal fields (Record.Trial/
//     Spec/Pinned) and the quarantine failure-depth counter. Its
//     snapshots were snap-*.ckpt files beside a wal-*.log journal per
//     generation.
//   - Version 3 moved snapshots into the journal: a snapshot is one
//     line of a journal segment (seg-*.log). Records are unchanged.
//     Format-2 directories are refused (ErrFormat2), never read.
//     Records later gained the contextual Ctx and Split fields, omitted
//     when empty; the earlier contextual layout is refused
//     (ErrContextLayout).
const Version = 3

// ErrNoSnapshot is returned by Load when the directory holds checkpoint
// state but no readable snapshot at all.
var ErrNoSnapshot = errors.New("checkpoint: no valid snapshot")

// ErrFormat2 is returned by Load when the directory's only checkpoint
// state is in format 2 (snap-*.ckpt and wal-*.log files), which this
// version does not read. The files are left as they are; a version of
// this package that still reads format 2 resumes such a directory and
// rewrites it as segments.
var ErrFormat2 = errors.New("checkpoint: format-2 checkpoint files (snap-*.ckpt, wal-*.log) are no longer read")

// ErrContextLayout is returned by Load when the directory holds the
// files a contextual engine kept beside its log before its replicas
// joined it: a global/ subdirectory with the global engine's segments, a
// splits.jsonl split journal or a contexts.json snapshot of the replicas'
// selectors. This version keeps all of it in the directory's one log and
// does not read those files; like format-2 files, they are refused and
// left as they are, never written over.
var ErrContextLayout = errors.New("checkpoint: contextual checkpoint of an earlier layout (global/, splits.jsonl, contexts.json) is no longer read")

// contextLayout returns the first entry of the earlier contextual layout
// that dir holds, or "" when it holds none.
func contextLayout(dir string) string {
	for _, name := range []string{"global", "splits.jsonl", "contexts.json"} {
		if _, err := os.Lstat(filepath.Join(dir, name)); err == nil {
			return name
		}
	}
	return ""
}

// Segments, and the snapshot and journal files of format 2, are named
// by a number zero-padded to genDigits, so lexical order is numeric
// order.
const (
	snapPrefix, snapSuffix = "snap-", ".ckpt"
	walPrefix, walSuffix   = "wal-", ".log"
	genDigits              = 12
)

// list lists dir once and returns its segments, ascending (os.ReadDir
// sorts by name, and the fixed-width names sort numerically), and
// whether it holds any format-2 snapshot or journal file. Files that
// match no naming pattern are ignored.
func list(dir string) (segs []int, format2 bool) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, false
	}
	for _, e := range entries {
		name := e.Name()
		if n, ok := parseGen(name, segPrefix, segSuffix); ok {
			segs = append(segs, n)
		} else if _, ok := parseGen(name, snapPrefix, snapSuffix); ok {
			format2 = true
		} else if _, ok := parseGen(name, walPrefix, walSuffix); ok {
			format2 = true
		}
	}
	return segs, format2
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
