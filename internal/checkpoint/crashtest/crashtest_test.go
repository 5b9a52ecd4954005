package crashtest

import (
	"errors"
	"os"
	"testing"

	"repro/internal/checkpoint"
)

func rec(i int) checkpoint.Record { return checkpoint.Record{Iter: i, Algo: "a"} }

// TestPowerLossKeepsSyncedPrefix: a power loss keeps exactly the synced
// records, a cut write fails with the disk down, and handles from before
// the loss stay dead after it. The journal writes only on Sync, so the
// cut lands on the one write that carries a whole group of records.
func TestPowerLossKeepsSyncedPrefix(t *testing.T) {
	dir := t.TempDir()
	d := Install(t)
	j, err := checkpoint.OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec(0)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := j.AppendBuffered(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	d.CutAt(1)
	if err := j.Sync(); !errors.Is(err, ErrPowerCut) || !d.Down() {
		t.Fatalf("Sync at the cut: err %v, down %v; want ErrPowerCut with the disk down", err, d.Down())
	}
	if err := j.Sync(); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("Sync after the cut: %v, want ErrPowerCut", err)
	}
	if d.Writes() != 2 || d.Syncs() != 1 {
		t.Fatalf("writes %d, syncs %d; want 2 and 1", d.Writes(), d.Syncs())
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
	if err := j.AppendBuffered(rec(4)); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); !errors.Is(err, ErrPowerCut) {
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

// TestTornPowerLossKeepsAPrefix: on a torn disk the write the power is
// cut at may survive in part, so a power loss leaves the synced records
// plus any prefix of the group in flight — none of it for some seeds,
// part of it for others, often ending in a torn line the reader drops —
// and never a record out of order.
func TestTornPowerLossKeepsAPrefix(t *testing.T) {
	const group = 8
	seen := map[int]bool{}
	torn := false
	for seed := int64(1); seed <= 40; seed++ {
		dir := t.TempDir()
		d := Install(t)
		d.Tear(seed)
		j, err := checkpoint.OpenJournal(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(rec(0)); err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= group; i++ {
			if err := j.AppendBuffered(rec(i)); err != nil {
				t.Fatal(err)
			}
		}
		d.CutAt(1)
		if err := j.Sync(); !errors.Is(err, ErrPowerCut) {
			t.Fatalf("seed %d: Sync at the cut: %v, want ErrPowerCut", seed, err)
		}
		if err := d.PowerLoss(); err != nil {
			t.Fatal(err)
		}
		recs, err := checkpoint.ReadJournal(checkpoint.WalPath(dir, 0))
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) < 1 || len(recs) > group+1 {
			t.Fatalf("seed %d: %d records survive, want the synced one plus at most %d", seed, len(recs), group)
		}
		for i, r := range recs {
			if r.Iter != i {
				t.Fatalf("seed %d: record %d has iteration %d, want a prefix", seed, i, r.Iter)
			}
		}
		seen[len(recs)-1] = true
		data, err := os.ReadFile(checkpoint.WalPath(dir, 0))
		if err != nil {
			t.Fatal(err)
		}
		torn = torn || data[len(data)-1] != '\n'
	}
	if !seen[0] || len(seen) < 3 || !torn {
		t.Fatalf("40 seeds kept in-flight prefixes %v (torn line seen: %v); want none, some and a torn line", seen, torn)
	}
}

// TestLargeGroupWritesEarly: a group of records far past the journal's
// pending-bytes bound reaches the file in early writes before its Sync,
// unsynced until then, and every record of it reads back in order.
func TestLargeGroupWritesEarly(t *testing.T) {
	const n = 5000 // about 280 KB of journal lines
	dir := t.TempDir()
	d := Install(t)
	j, err := checkpoint.OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := j.AppendBuffered(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if d.Writes() == 0 || d.Syncs() != 0 {
		t.Fatalf("%d buffered records: %d writes, %d syncs before Sync; want early writes, no sync", n, d.Writes(), d.Syncs())
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	recs, err := checkpoint.ReadJournal(checkpoint.WalPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("read %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.Iter != i {
			t.Fatalf("record %d has iteration %d", i, r.Iter)
		}
	}
}
