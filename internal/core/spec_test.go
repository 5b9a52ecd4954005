package core

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/checkpoint"

	"repro/internal/nominal"
	"repro/internal/param"
)

func specAlgos() []Algorithm {
	return []Algorithm{
		{Name: "a"},
		{Name: "b", Space: param.NewSpace(param.NewRatio("x", 1, 2))},
	}
}

func TestEngineSpecRoundTrip(t *testing.T) {
	in := EngineSpec{Seed: 7, LeaseTimeoutMS: 250, MaxInFlight: 32, Drift: true, SnapshotEvery: 10}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out EngineSpec
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v want %+v", out, in)
	}
}

func TestEngineSpecHash(t *testing.T) {
	base := EngineSpec{Seed: 1}
	algos := []string{"a", "b"}
	h := base.Hash(algos, "egreedy:10")

	// Tenant directories store this hash and refuse to resume on a
	// mismatch, so it must never move.
	const golden = 0x1ef5bbdb
	if h != golden {
		t.Fatalf("EngineSpec{Seed: 1} hashes to %08x, golden %08x: existing tenant directories would stop resuming", h, golden)
	}
	// Every field set, so each one's place in the canonical form is
	// pinned too; the value was taken before the retired multi-shard
	// fields left the struct.
	full := EngineSpec{Seed: 7, LeaseTimeoutMS: 250, MaxInFlight: 32, Drift: true, SnapshotEvery: 10}
	if got, want := full.Hash(algos, "egreedy:10"), uint32(0x1e489b87); got != want {
		t.Fatalf("%+v hashes to %08x, golden %08x", full, got, want)
	}

	// Defaults and explicit defaults hash identically.
	explicit := EngineSpec{Seed: 1, LeaseTimeoutMS: DefaultLeaseTimeout.Milliseconds(), SnapshotEvery: 100}
	if got := explicit.Hash(algos, "egreedy:10"); got != h {
		t.Fatalf("explicit defaults hash %08x != zero-value hash %08x", got, h)
	}

	// Any semantic change moves the hash.
	for name, other := range map[string]uint32{
		"seed":     EngineSpec{Seed: 2}.Hash(algos, "egreedy:10"),
		"drift":    EngineSpec{Seed: 1, Drift: true}.Hash(algos, "egreedy:10"),
		"selector": base.Hash(algos, "ucb1"),
		"roster":   base.Hash([]string{"a", "c"}, "egreedy:10"),
		// Roster boundaries must not be ambiguous: {"ab"} vs {"a","b"}.
		"boundary": base.Hash([]string{"ab"}, "egreedy:10"),
	} {
		if other == h {
			t.Fatalf("%s change did not move the hash", name)
		}
	}
}

func TestEngineSpecBuildAndResume(t *testing.T) {
	dir := t.TempDir()
	spec := EngineSpec{Seed: 11, SnapshotEvery: 3}

	eng, err := spec.Build(specAlgos(), nominal.NewEpsilonGreedy(0.1), nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		leases, err := eng.LeaseN(1)
		if err != nil || len(leases) != 1 {
			t.Fatalf("lease %d: %v (%d leases)", i, err, len(leases))
		}
		for _, cerr := range eng.CompleteN([]TrialResult{{ID: leases[0].ID, Value: float64(1 + leases[0].Algo)}}) {
			if cerr != nil {
				t.Fatal(cerr)
			}
		}
	}
	wantIter := eng.Iterations()
	wantCounts := eng.Counts()
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	if !HasCheckpoint(dir) {
		t.Fatal("HasCheckpoint false after Checkpoint")
	}
	resumed, err := spec.Build(specAlgos(), nominal.NewEpsilonGreedy(0.1), nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.Iterations(); got != wantIter {
		t.Fatalf("resumed iterations %d != %d", got, wantIter)
	}
	gotCounts := resumed.Counts()
	for i := range wantCounts {
		if gotCounts[i] != wantCounts[i] {
			t.Fatalf("resumed counts %v != %v", gotCounts, wantCounts)
		}
	}
}

// driveSpecAlgos leases and completes n trials one at a time over the
// specAlgos roster, whose tunable algorithm costs 1+x.
func driveSpecAlgos(t *testing.T, lease func(int) ([]Trial, error), complete func([]TrialResult) []error, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		leases, err := lease(1)
		if err != nil || len(leases) != 1 {
			t.Fatalf("lease %d: %v (%d leases)", i, err, len(leases))
		}
		v := 2.0
		if leases[0].Algo == 1 {
			v = 1 + leases[0].Config[0]
		}
		for _, err := range complete([]TrialResult{{ID: leases[0].ID, Value: v}}) {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// snapshotHasHistoryTail reports whether dir's newest snapshot carries
// a history tail.
func snapshotHasHistoryTail(t *testing.T, dir string) bool {
	t.Helper()
	st, err := checkpoint.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Contains(st.Payload, []byte(`"history_tail"`))
}

// TestSpecEngineResumesHistoryKeepingEngine: spec-built engines keep no
// per-trial log, so their snapshots carry no history tail. A directory
// written by a history-keeping engine still resumes into a spec-built
// one, and a spec-built directory into a history-keeping engine, at the
// same iterations, counts and incumbent.
func TestSpecEngineResumesHistoryKeepingEngine(t *testing.T) {
	const seed, every, trials = 5, 40, 130
	spec := EngineSpec{Seed: seed, SnapshotEvery: every}
	type view struct {
		iters  int
		counts []int
		algo   int
		cfg    param.Config
		val    float64
	}
	check := func(name string, got, want view) {
		t.Helper()
		if got.iters != want.iters || !slices.Equal(got.counts, want.counts) ||
			got.algo != want.algo || !got.cfg.Equal(want.cfg) || got.val != want.val {
			t.Fatalf("%s resumed at %+v, want %+v", name, got, want)
		}
	}

	t.Run("history-keeping to spec", func(t *testing.T) {
		dir := t.TempDir()
		old, err := NewTuner(specAlgos(), nominal.NewEpsilonGreedy(0.1), nil, seed, WithCheckpoint(dir, every))
		if err != nil {
			t.Fatal(err)
		}
		driveSpecAlgos(t, old.LeaseN, old.CompleteN, trials)
		if !snapshotHasHistoryTail(t, dir) {
			t.Fatal("history-keeping engine wrote a snapshot without a history tail")
		}
		a, cfg, v := old.Best()
		want := view{old.Iterations(), old.Counts(), a, cfg, v}

		eng, err := spec.Build(specAlgos(), nominal.NewEpsilonGreedy(0.1), nil, dir)
		if err != nil {
			t.Fatal(err)
		}
		a, cfg, v = eng.Best()
		check("spec engine", view{eng.Iterations(), eng.Counts(), a, cfg, v}, want)
		if snapshotHasHistoryTail(t, dir) {
			t.Fatal("spec engine's resume snapshot carries a history tail")
		}
		if h := eng.History(); len(h) != 0 {
			t.Fatalf("spec engine resumed %d history records", len(h))
		}
	})

	t.Run("spec to history-keeping", func(t *testing.T) {
		dir := t.TempDir()
		eng, err := spec.Build(specAlgos(), nominal.NewEpsilonGreedy(0.1), nil, dir)
		if err != nil {
			t.Fatal(err)
		}
		driveSpecAlgos(t, eng.LeaseN, eng.CompleteN, trials)
		if snapshotHasHistoryTail(t, dir) {
			t.Fatal("spec engine wrote a snapshot with a history tail")
		}
		a, cfg, v := eng.Best()
		want := view{eng.Iterations(), eng.Counts(), a, cfg, v}

		re, err := NewTuner(specAlgos(), nominal.NewEpsilonGreedy(0.1), nil, seed, WithCheckpoint(dir, every))
		if err != nil {
			t.Fatal(err)
		}
		a, cfg, v = re.Best()
		check("history-keeping engine", view{re.Iterations(), re.Counts(), a, cfg, v}, want)
	})
}
