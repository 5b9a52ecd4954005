package core

import (
	"encoding/json"
	"testing"

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
	in := EngineSpec{Seed: 7, Shards: 4, MergeEvery: 8, LeaseTimeoutMS: 250, MaxInFlight: 32, Drift: true, SnapshotEvery: 10}
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

	// Defaults and explicit defaults hash identically.
	explicit := EngineSpec{Seed: 1, Shards: 1, MergeEvery: DefaultMergeEvery,
		LeaseTimeoutMS: DefaultLeaseTimeout.Milliseconds(), SnapshotEvery: 100}
	if got := explicit.Hash(algos, "egreedy:10"); got != h {
		t.Fatalf("explicit defaults hash %08x != zero-value hash %08x", got, h)
	}

	// Any semantic change moves the hash.
	for name, other := range map[string]uint32{
		"shards":   EngineSpec{Seed: 1, Shards: 4}.Hash(algos, "egreedy:10"),
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
	spec := EngineSpec{Seed: 11, Shards: 2, MergeEvery: 2, SnapshotEvery: 3}

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
