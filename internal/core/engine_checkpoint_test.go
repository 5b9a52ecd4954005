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
// checks that NewConcurrentTuner over the same directory reconstructs
// the decision state from the journal and the engine keeps working.
func TestConcurrentCrashResume(t *testing.T) {
	dir := t.TempDir()
	algos := engineAlgos()
	mk := func() nominal.Selector { return nominal.NewEpsilonGreedy(0.10) }

	ct, err := NewConcurrentTuner(algos, mk(), nil, 11, WithCheckpoint(dir, 10), WithMaxInFlight(8))
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
	maxID := ct.nextID

	// A sequential build must refuse a trial-engine journal.
	if _, err := NewTuner(algos, mk(), nil, 11, WithCheckpoint(dir, 10)); err == nil || !strings.Contains(err.Error(), "NewConcurrentTuner") {
		t.Fatalf("sequential NewTuner on a concurrent journal: err = %v, want a pointer to NewConcurrentTuner", err)
	}

	res, err := NewConcurrentTuner(algos, mk(), nil, 11, WithCheckpoint(dir, 10))
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

// TestConcurrentResumeOfSequentialJournal checks NewConcurrentTuner also
// accepts a plain sequential journal (trial IDs all zero): the engine is
// the superset.
func TestConcurrentResumeOfSequentialJournal(t *testing.T) {
	dir := t.TempDir()
	algos := engineAlgos()
	tn, err := NewTuner(algos, nominal.NewEpsilonGreedy(0.10), nil, 13, WithCheckpoint(dir, 8))
	if err != nil {
		t.Fatal(err)
	}
	tn.Run(27, engineMeasure)
	want := tn.Counts()

	res, err := NewConcurrentTuner(algos, nominal.NewEpsilonGreedy(0.10), nil, 13, WithCheckpoint(dir, 8))
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
// testdata/engine-v2: 36 completions and failures leased in batches of
// three and completed in reverse, then an Absorb of 8) and checks the
// resumed engine reaches the state that engine exported at the end of
// its run, state.json. The one field left out is rng_drawn: direct
// replay applies journaled trials without re-drawing their proposals.
func TestResumeJournalFixture(t *testing.T) {
	fixture := filepath.Join("..", "checkpoint", "testdata", "engine-v2")
	dir := t.TempDir()
	for _, path := range []string{checkpoint.SnapPath(fixture, 0), checkpoint.WalPath(fixture, 0)} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(path)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	re, err := NewConcurrentTuner(engineAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 11, WithCheckpoint(dir, 0))
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
}

// TestResumeV2DirectoryMigrates: resuming a format-2 directory writes
// its first segment and only then removes the snap-*/wal-* files, so the
// directory holds segments alone, and it resumes again at the same
// iteration with trial IDs above the format-2 journal's.
func TestResumeV2DirectoryMigrates(t *testing.T) {
	fixture := filepath.Join("..", "checkpoint", "testdata", "engine-v2")
	dir := t.TempDir()
	var maxTrial uint64
	for _, path := range []string{checkpoint.SnapPath(fixture, 0), checkpoint.WalPath(fixture, 0)} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(path)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := checkpoint.ReadJournal(checkpoint.WalPath(fixture, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		maxTrial = max(maxTrial, r.Trial)
	}
	for round := 0; round < 2; round++ {
		re, err := NewConcurrentTuner(engineAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 11, WithCheckpoint(dir, 0))
		if err != nil {
			t.Fatal(err)
		}
		if re.Iterations() != 44 {
			t.Fatalf("round %d: resumed at %d iterations, want 44", round, re.Iterations())
		}
		trs, err := re.LeaseN(1)
		if err != nil || trs[0].ID <= maxTrial {
			t.Fatalf("round %d: fresh trial %+v (%v), want an ID above the journal's %d", round, trs, err, maxTrial)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !strings.HasPrefix(e.Name(), "seg-") {
				t.Fatalf("round %d: %s left beside the segments", round, e.Name())
			}
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
