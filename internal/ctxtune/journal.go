package ctxtune

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
)

// The split journal is an append-only JSON-lines file of Split records.
// Splits are rare (each one needs MinSamples observations and a bimodal
// distribution), so every append is fsynced — the journal is always
// complete up to the last split the process committed to, and replaying
// it on resume reconstructs the exact tree topology even when the
// process died between two partitioner snapshots.

const splitJournalName = "splits.jsonl"

// splitJournal appends Split records durably to dir/splits.jsonl. The
// file is opened by the first append after a close, so an engine that
// has checkpointed and gone idle holds no handle on it.
type splitJournal struct {
	dir string
	mu  sync.Mutex
	f   *os.File // nil while closed
}

// append writes one split record and fsyncs.
func (j *splitJournal) append(s Split) error {
	buf, err := json.Marshal(s)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		f, err := os.OpenFile(filepath.Join(j.dir, splitJournalName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		j.f = f
	}
	if _, err := j.f.Write(append(buf, '\n')); err != nil {
		return err
	}
	return j.f.Sync()
}

// close closes the journal file if it is open.
func (j *splitJournal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// readSplits loads the journaled splits from dir, in append order. A
// missing file yields nil; a torn or corrupt trailing line (the crash
// case) ends the read at the last intact record instead of failing the
// resume.
func readSplits(dir string) []Split {
	f, err := os.Open(filepath.Join(dir, splitJournalName))
	if err != nil {
		return nil
	}
	defer f.Close()
	var out []Split
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s Split
		if json.Unmarshal(sc.Bytes(), &s) != nil || s.Node == "" {
			break
		}
		out = append(out, s)
	}
	return out
}
