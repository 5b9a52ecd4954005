//go:build !race

// The race detector's instrumentation changes allocation counts, so the
// allocation gate runs in normal builds only.

package checkpoint_test

import (
	"math"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/checkpoint/crashtest"
)

// TestJournalAppendAllocs: once warm, one engine operation's worth of
// journaling — 16 AppendBuffered calls and one Sync — allocates nothing
// and reaches the disk as exactly one write and one sync. Encoding by
// reflection, a buffer not reused, or a write per record fails it.
func TestJournalAppendAllocs(t *testing.T) {
	disk := crashtest.Install(t)
	j, err := checkpoint.OpenJournal(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	cfg := []checkpoint.F{1.25, 512, checkpoint.F(math.NaN())}
	rec := checkpoint.Record{Algo: "tuned <&>", Config: cfg, Value: 2.25e-9, FailKind: "timeout", Spec: true}
	group := func() {
		for k := 0; k < 16; k++ {
			rec.Iter++
			rec.Trial = uint64(rec.Iter)
			if err := j.AppendBuffered(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	group() // warm-up: grows the line buffer once
	allocs := testing.AllocsPerRun(100, group)
	t.Logf("16 appends and a Sync: %.1f allocations", allocs)
	if allocs != 0 {
		t.Errorf("16 appends and a Sync allocate %.1f times, want 0", allocs)
	}
	writes, syncs := disk.Writes(), disk.Syncs()
	group()
	if w, s := disk.Writes()-writes, disk.Syncs()-syncs; w != 1 || s != 1 {
		t.Errorf("16 appends and a Sync reach the disk as %d writes and %d syncs, want 1 and 1", w, s)
	}
}
