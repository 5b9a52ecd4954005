package crashtest

import (
	"errors"
	"testing"

	"repro/internal/checkpoint"
)

// TestPowerLossKeepsSyncedPrefix: a power loss keeps exactly the synced
// records, a cut write fails with the disk down, and handles from before
// the loss stay dead after it.
func TestPowerLossKeepsSyncedPrefix(t *testing.T) {
	dir := t.TempDir()
	d := Install(t)
	j, err := checkpoint.OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := func(i int) checkpoint.Record { return checkpoint.Record{Iter: i, Algo: "a"} }
	if err := j.Append(rec(0)); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendBuffered(rec(1)); err != nil {
		t.Fatal(err)
	}
	d.CutAt(2)
	if err := j.AppendBuffered(rec(2)); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendBuffered(rec(3)); !errors.Is(err, ErrPowerCut) || !d.Down() {
		t.Fatalf("cut write: err %v, down %v; want ErrPowerCut with the disk down", err, d.Down())
	}
	if err := j.Sync(); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("Sync after the cut: %v, want ErrPowerCut", err)
	}
	if d.Writes() != 4 || d.Syncs() != 1 {
		t.Fatalf("writes %d, syncs %d; want 4 and 1", d.Writes(), d.Syncs())
	}
	if err := d.PowerLoss(); err != nil {
		t.Fatal(err)
	}
	recs, err := checkpoint.ReadJournal(checkpoint.WalPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Iter != 0 {
		t.Fatalf("after power loss the journal holds %+v, want only the synced record 0", recs)
	}
	if err := j.AppendBuffered(rec(4)); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("write through a pre-loss handle: %v, want ErrPowerCut", err)
	}
	j2, err := checkpoint.OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(rec(1)); err != nil {
		t.Fatal(err)
	}
	if recs, _ := checkpoint.ReadJournal(checkpoint.WalPath(dir, 0)); len(recs) != 2 {
		t.Fatalf("after restart the journal holds %d records, want 2", len(recs))
	}
}
