package core

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/guard"
	"repro/internal/nominal"
)

// TestConcurrentCrashResume drives the trial engine with several leases
// in flight, completing them out of order (interleaved trial IDs,
// speculative records, failures), kills it with leases outstanding, and
// checks that NewTuner over the same directory reconstructs
// the decision state from the journal and the engine keeps working.
func TestConcurrentCrashResume(t *testing.T) {
	dir := t.TempDir()
	algos := engineAlgos()
	mk := func() nominal.Selector { return nominal.NewEpsilonGreedy(0.10) }

	ct, err := NewTuner(algos, mk(), nil, 11, WithCheckpoint(dir, 10), WithMaxInFlight(8))
	if err != nil {
		t.Fatal(err)
	}

	// 12 batches of 3 leases completed in reverse order: completion
	// order never matches lease order, so the journal's trial IDs are
	// interleaved; one completion in three is a failure.
	completed := 0
	for batch := 0; batch < 12; batch++ {
		var trs []Trial
		for i := 0; i < 3; i++ {
			tr, err := ct.Lease()
			if err != nil {
				t.Fatal(err)
			}
			trs = append(trs, tr)
		}
		for i := len(trs) - 1; i >= 0; i-- {
			if completed%3 == 2 {
				err = ct.Fail(trs[i].ID, guard.Failure{Kind: guard.Panic, Err: errors.New("boom")})
			} else {
				err = ct.Complete(trs[i].ID, engineMeasure(trs[i].Algo, trs[i].Config))
			}
			if err != nil {
				t.Fatal(err)
			}
			completed++
		}
	}
	// Two leases left dangling at the "crash": lost by design.
	if _, err := ct.Lease(); err != nil {
		t.Fatal(err)
	}
	if _, err := ct.Lease(); err != nil {
		t.Fatal(err)
	}
	if ct.Iterations() != completed {
		t.Fatalf("pre-crash iterations = %d, want %d", ct.Iterations(), completed)
	}
	preCounts := ct.Counts()
	preBestA, preBestC, preBestV := ct.Best()
	preFS := ct.FailureStats()
	maxID := ct.mu.lastID

	res, err := NewTuner(algos, mk(), nil, 11, WithCheckpoint(dir, 10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations() != completed {
		t.Fatalf("resumed iterations = %d, want %d (every journaled completion, no dangling leases)", res.Iterations(), completed)
	}
	for i, c := range res.Counts() {
		if c != preCounts[i] {
			t.Fatalf("resumed counts[%d] = %d, want %d", i, c, preCounts[i])
		}
	}
	rA, rC, rV := res.Best()
	if rA != preBestA || rV != preBestV || !rC.Equal(preBestC) {
		t.Fatalf("resumed best (%d,%v,%v), want (%d,%v,%v)", rA, rC, rV, preBestA, preBestC, preBestV)
	}
	rFS := res.FailureStats()
	if rFS.Total != preFS.Total || rFS.Panics != preFS.Panics {
		t.Fatalf("resumed failure stats %+v, want %+v", rFS, preFS)
	}

	// Fresh trial IDs must not collide with journaled ones.
	tr, err := res.Lease()
	if err != nil {
		t.Fatal(err)
	}
	if tr.ID <= maxID-2 { // the two dangling IDs were never journaled
		t.Fatalf("resumed trial ID %d collides with journaled IDs (max leased %d)", tr.ID, maxID)
	}
	if err := res.Complete(tr.ID, 1.0); err != nil {
		t.Fatal(err)
	}
	// And the resumed engine keeps tuning and checkpointing.
	res.RunPool(4, 40, engineMeasure)
	if res.Iterations() != completed+41 {
		t.Fatalf("post-resume iterations = %d, want %d", res.Iterations(), completed+41)
	}
	if err := res.CheckpointErr(); err != nil {
		t.Fatalf("checkpointing degraded after resume: %v", err)
	}
}

// TestConcurrentResumeOfSequentialJournal: a journal a single caller
// wrote through Run resumes, and the resumed tuner serves concurrent
// workers.
func TestConcurrentResumeOfSequentialJournal(t *testing.T) {
	dir := t.TempDir()
	algos := engineAlgos()
	tn, err := NewTuner(algos, nominal.NewEpsilonGreedy(0.10), nil, 13, WithCheckpoint(dir, 8))
	if err != nil {
		t.Fatal(err)
	}
	tn.Run(27, engineMeasure)
	want := tn.Counts()

	res, err := NewTuner(algos, nominal.NewEpsilonGreedy(0.10), nil, 13, WithCheckpoint(dir, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations() != 27 {
		t.Fatalf("resumed iterations = %d, want 27", res.Iterations())
	}
	for i, c := range res.Counts() {
		if c != want[i] {
			t.Fatalf("resumed counts[%d] = %d, want %d", i, c, want[i])
		}
	}
	res.RunPool(2, 10, engineMeasure)
	if res.Iterations() != 37 {
		t.Fatalf("post-resume iterations = %d, want 37", res.Iterations())
	}
}

// TestResumeJournalFixture resumes a checkpoint a trial engine wrote
// before the journal's hand-written encoder (checkpoint's
// testdata/engine-v3: 36 completions and failures leased in batches of
// three and completed in reverse, then an Absorb of 8, as json.Marshal
// encoded them, behind the segment's opening snapshot) and checks the
// resumed engine reaches the state that engine exported at the end of
// its run, state.json. The one field left out is rng_drawn: direct
// replay applies journaled trials without re-drawing their proposals.
func TestResumeJournalFixture(t *testing.T) {
	fixture := filepath.Join("..", "checkpoint", "testdata", "engine-v3")
	dir := t.TempDir()
	seg := checkpoint.SegPath(fixture, 1)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, filepath.Base(seg)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := NewTuner(engineAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 11, WithCheckpoint(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if re.Iterations() != 44 {
		t.Fatalf("resumed at %d iterations, want 44", re.Iterations())
	}
	got, err := re.t.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(fixture, "state.json"))
	if err != nil {
		t.Fatal(err)
	}
	var g, w map[string]any
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatal(err)
	}
	delete(g, "rng_drawn")
	delete(w, "rng_drawn")
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("resumed state\n%s\nwant\n%s", got, want)
	}
	if trs, err := re.LeaseN(1); err != nil || trs[0].ID <= 44 {
		t.Fatalf("fresh trial %+v (%v), want an ID above the journal's 44", trs, err)
	}
}

// TestResumeSequentialFixture resumes testdata/tuner-v3, a directory the
// sequential tuner wrote before it became the trial engine's
// single-caller mode: 50 Steps at a snapshot cadence of 20, records with
// neither trial IDs nor draw counts. The resumed tuner reaches the state
// that tuner exported at the end of its run, state.json, but for
// rng_drawn, which such records do not restore; and it keeps tuning.
func TestResumeSequentialFixture(t *testing.T) {
	fixture := filepath.Join("testdata", "tuner-v3")
	dir := t.TempDir()
	seg := checkpoint.SegPath(fixture, 1)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, filepath.Base(seg)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := NewTuner(engineAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 11, WithCheckpoint(dir, 20))
	if err != nil {
		t.Fatal(err)
	}
	if re.Iterations() != 50 {
		t.Fatalf("resumed at %d iterations, want 50", re.Iterations())
	}
	got, err := re.t.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(fixture, "state.json"))
	if err != nil {
		t.Fatal(err)
	}
	var g, w map[string]any
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatal(err)
	}
	delete(g, "rng_drawn")
	delete(w, "rng_drawn")
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("resumed state\n%s\nwant\n%s", got, want)
	}
	re.Run(10, engineMeasure)
	if re.Iterations() != 60 {
		t.Fatalf("post-resume iterations = %d, want 60", re.Iterations())
	}
}

// TestResumeV2DirectoryRefused: a directory holding a format-2
// checkpoint (checkpoint's testdata/engine-v2) holds state, so the
// constructor does not start fresh over it; it fails with an error
// naming the format, and the snap-*/wal-* files are still there.
func TestResumeV2DirectoryRefused(t *testing.T) {
	fixture := filepath.Join("..", "checkpoint", "testdata", "engine-v2")
	dir := t.TempDir()
	names := []string{"snap-000000000000.ckpt", "wal-000000000000.log"}
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(fixture, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if !HasCheckpoint(dir) {
		t.Fatal("HasCheckpoint false over a format-2 directory")
	}
	for name, build := range map[string]func() error{
		"NewTuner": func() error {
			_, err := NewTuner(engineAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 11, WithCheckpoint(dir, 0))
			return err
		},
	} {
		err := build()
		if !errors.Is(err, checkpoint.ErrFormat2) || !strings.Contains(err.Error(), "format-2") {
			t.Errorf("%s over a format-2 directory: %v, want the format-2 error", name, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(names) {
		t.Fatalf("directory holds %d entries after the refused builds, want the %d format-2 files untouched", len(entries), len(names))
	}
	for i, e := range entries {
		if e.Name() != names[i] {
			t.Fatalf("directory holds %s, want %s", e.Name(), names[i])
		}
	}
}

// TestResumeIssuesIDsAboveOutstandingLeases: a snapshot carries the
// highest trial ID issued before it, so a resumed engine never reissues
// the ID of a lease that was still out — and may yet be completed by its
// worker — when the snapshot was taken.
func TestResumeIssuesIDsAboveOutstandingLeases(t *testing.T) {
	dir := t.TempDir()
	ct := newEngine(t, 5, WithCheckpoint(dir, 0))
	trs, err := ct.LeaseN(20)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trs[:10] {
		if err := ct.Complete(tr.ID, engineMeasure(tr.Algo, tr.Config)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ct.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	re := newEngine(t, 5, WithCheckpoint(dir, 0))
	fresh, err := re.LeaseN(1)
	if err != nil {
		t.Fatal(err)
	}
	if fresh[0].ID <= trs[19].ID {
		t.Fatalf("resumed engine issued trial %d, at or below outstanding lease %d", fresh[0].ID, trs[19].ID)
	}
}

// TestRebuildIssuesNoLeasedID: a lease still out when the engine is
// rebuilt over its directory — as after a crash — was never journaled,
// yet the rebuilt engine must not issue its ID again, or the stale
// lease's late completion would be applied to a fresh trial. Flat and
// contextual engines alike.
func TestRebuildIssuesNoLeasedID(t *testing.T) {
	for _, contextual := range []bool{false, true} {
		name := "flat"
		if contextual {
			name = "contextual"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			// build returns the engine a worker leases from: the engine
			// itself, or a replica of the contextual one.
			build := func() *Tuner {
				if !contextual {
					return newEngine(t, 5, WithCheckpoint(dir, 0))
				}
				sel := func() nominal.Selector { return nominal.NewEpsilonGreedy(0.10) }
				g, err := NewContextualTuner(engineAlgos(), sel(), nil, 5, exportHook{sel}, WithCheckpoint(dir, 0))
				if err != nil {
					t.Fatal(err)
				}
				r, err := g.Replica("b0")
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			e := build()
			for i := 0; i < 5; i++ {
				tr, err := e.Lease()
				if err != nil {
					t.Fatal(err)
				}
				if err := e.Complete(tr.ID, engineMeasure(tr.Algo, tr.Config)); err != nil {
					t.Fatal(err)
				}
			}
			stale, err := e.Lease()
			if err != nil {
				t.Fatal(err)
			}

			re := build()
			if got := re.Iterations(); got != 5 {
				t.Fatalf("rebuilt at %d iterations, want 5", got)
			}
			fresh, err := re.Lease()
			if err != nil {
				t.Fatal(err)
			}
			if fresh.ID == stale.ID {
				t.Fatalf("rebuilt engine issued trial %d again", fresh.ID)
			}
			if err := re.Complete(stale.ID, 99); !errors.Is(err, ErrUnknownTrial) {
				t.Fatalf("stale completion of trial %d: err = %v, want ErrUnknownTrial", stale.ID, err)
			}
		})
	}
}
