package tenant

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint/crashtest"
	"repro/internal/core"
)

// drive completes n trials against a tenant's engine through the
// registry, leaving the acquire released between trials so the LRU may
// act.
func drive(t *testing.T, r *Registry, name string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		eng, _, release, err := r.Acquire(name)
		if err != nil {
			t.Fatalf("acquire %s: %v", name, err)
		}
		leases, err := eng.LeaseN(1)
		if err != nil || len(leases) != 1 {
			t.Fatalf("lease on %s: %v (%d)", name, err, len(leases))
		}
		// Arm index sets the cost so tenants develop distinct winners.
		for _, cerr := range eng.CompleteN([]core.TrialResult{{ID: leases[0].ID, Value: float64(1 + leases[0].Algo)}}) {
			if cerr != nil {
				t.Fatalf("complete on %s: %v", name, cerr)
			}
		}
		release()
	}
}

func sleepSpec(name string) Spec {
	return Spec{Name: name, Workload: "sleep", Engine: core.EngineSpec{Seed: 7, SnapshotEvery: 5}}
}

func TestRegisterValidation(t *testing.T) {
	r, err := NewRegistry(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Spec{
		{Name: "", Workload: "sleep"},
		{Name: "../evil", Workload: "sleep"},
		{Name: "a/b", Workload: "sleep"},
		{Name: ".hidden", Workload: "sleep"},
		{Name: strings.Repeat("x", 80), Workload: "sleep"},
		{Name: "ok", Workload: "nope"},
		{Name: "ok", Workload: "sleep", Selector: "egreedy:banana"},
	} {
		if err := r.Register(bad); err == nil {
			t.Errorf("Register(%+v) accepted", bad)
		}
	}
	if err := r.Register(sleepSpec("team-a")); err != nil {
		t.Fatal(err)
	}
	// Identical re-registration is a no-op; a changed spec is refused.
	if err := r.Register(sleepSpec("team-a")); err != nil {
		t.Fatalf("identical re-register: %v", err)
	}
	changed := sleepSpec("team-a")
	changed.Engine.Shards = 4
	if err := r.Register(changed); err == nil {
		t.Fatal("changed spec accepted for existing tenant")
	}
}

func TestAcquireUnknown(t *testing.T) {
	r, _ := NewRegistry(Config{})
	if _, _, _, err := r.Acquire("ghost"); err == nil {
		t.Fatal("Acquire of unregistered tenant succeeded")
	}
}

func TestMaxResidentNeedsRoot(t *testing.T) {
	if _, err := NewRegistry(Config{MaxResident: 1}); err == nil {
		t.Fatal("MaxResident without Root accepted")
	}
}

// TestLRUSpillAndWarmRestart is the registry's core contract: under a
// residency cap the least-recently-used idle tenant is checkpointed and
// released, and its next acquire warm-restarts it with identical
// Best/Counts.
func TestLRUSpillAndWarmRestart(t *testing.T) {
	root := t.TempDir()
	r, err := NewRegistry(Config{Root: root, MaxResident: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"alpha", "beta"} {
		if err := r.Register(sleepSpec(n)); err != nil {
			t.Fatal(err)
		}
	}

	drive(t, r, "alpha", 20)
	eng, _, release, err := r.Acquire("alpha")
	if err != nil {
		t.Fatal(err)
	}
	wantIter := eng.Iterations()
	wantCounts := eng.Counts()
	wantAlgo, _, wantVal := eng.Best()
	release()

	// Materializing beta must spill alpha (cap 1) with a checkpoint.
	drive(t, r, "beta", 3)
	if got := r.Resident(); got != 1 {
		t.Fatalf("resident=%d after spill, want 1", got)
	}
	if !core.HasCheckpoint(filepath.Join(root, "alpha", "ckpt")) {
		t.Fatal("spill wrote no checkpoint for alpha")
	}

	// Next acquire warm-restarts alpha from its checkpoint.
	eng, ten, release, err := r.Acquire("alpha")
	if err != nil {
		t.Fatalf("warm restart: %v", err)
	}
	defer release()
	if ten.Epoch() == 0 {
		t.Fatal("tenant has no epoch")
	}
	if got := eng.Iterations(); got != wantIter {
		t.Fatalf("restarted iterations %d, want %d", got, wantIter)
	}
	gotCounts := eng.Counts()
	for i := range wantCounts {
		if gotCounts[i] != wantCounts[i] {
			t.Fatalf("restarted counts %v, want %v", gotCounts, wantCounts)
		}
	}
	gotAlgo, _, gotVal := eng.Best()
	if gotAlgo != wantAlgo || gotVal != wantVal {
		t.Fatalf("restarted best (%d, %g), want (%d, %g)", gotAlgo, gotVal, wantAlgo, wantVal)
	}

	infos := r.Snapshot()
	var alpha *Info
	for i := range infos {
		if infos[i].Name == "alpha" {
			alpha = &infos[i]
		}
	}
	if alpha == nil || alpha.Spills == 0 || alpha.Restarts == 0 {
		t.Fatalf("alpha info %+v: want spills and restarts > 0", alpha)
	}
}

// TestSpillLeavesNoSegmentOpen: a tenant spilled under the residency
// cap holds no journal file open — its checkpoint syncs and closes the
// segment — while the resident tenant still appends to its own.
func TestSpillLeavesNoSegmentOpen(t *testing.T) {
	disk := crashtest.Install(t)
	root := t.TempDir()
	r, err := NewRegistry(Config{Root: root, MaxResident: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"alpha", "beta"} {
		if err := r.Register(sleepSpec(n)); err != nil {
			t.Fatal(err)
		}
	}
	alpha, beta := filepath.Join(root, "alpha", "ckpt"), filepath.Join(root, "beta", "ckpt")
	drive(t, r, "alpha", 12)
	if got := disk.Handles(alpha); got != 1 {
		t.Fatalf("resident alpha holds %d segment handles, want 1", got)
	}
	drive(t, r, "beta", 3)
	if got := r.Resident(); got != 1 {
		t.Fatalf("resident=%d after spill, want 1", got)
	}
	if got := disk.Handles(alpha); got != 0 {
		t.Fatalf("spilled alpha holds %d segment handles, want 0", got)
	}
	if got := disk.Handles(beta); got != 1 {
		t.Fatalf("resident beta holds %d segment handles, want 1", got)
	}
}

// TestAcquirePinsResidency: a tenant with an unreleased acquire (or
// trials in flight) is never the spill victim.
func TestAcquirePinsResidency(t *testing.T) {
	root := t.TempDir()
	r, err := NewRegistry(Config{Root: root, MaxResident: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"alpha", "beta"} {
		if err := r.Register(sleepSpec(n)); err != nil {
			t.Fatal(err)
		}
	}
	engA, _, releaseA, err := r.Acquire("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engA.LeaseN(1); err != nil {
		t.Fatal(err)
	}
	// Beta materializes over the cap, but alpha is pinned: both stay.
	_, _, releaseB, err := r.Acquire("beta")
	if err != nil {
		t.Fatal(err)
	}
	releaseB()
	if got := r.Resident(); got != 2 {
		t.Fatalf("resident=%d with pinned over-cap tenant, want 2", got)
	}
	releaseA()
}

// TestRestartRediscovery is the kill/restart leg: a fresh registry over
// the same root rediscovers every tenant from its spec.json and resumes
// its state from its own checkpoint directory.
func TestRestartRediscovery(t *testing.T) {
	root := t.TempDir()
	r, err := NewRegistry(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"alpha", "beta"} {
		if err := r.Register(sleepSpec(n)); err != nil {
			t.Fatal(err)
		}
	}
	drive(t, r, "alpha", 12)
	drive(t, r, "beta", 7)
	order, err := r.CheckpointAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "alpha" || order[1] != "beta" {
		t.Fatalf("CheckpointAll order %v, want [alpha beta]", order)
	}
	engA, _, rel, _ := r.Acquire("alpha")
	wantIter := engA.Iterations()
	rel()

	// "Kill" the process: a brand-new registry over the same root.
	r2, err := NewRegistry(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	names := r2.Names()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Fatalf("rediscovered %v, want [alpha beta]", names)
	}
	eng, ten, release, err := r2.Acquire("alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if got := eng.Iterations(); got != wantIter {
		t.Fatalf("resumed iterations %d, want %d", got, wantIter)
	}
	// A new process must never share an epoch with the old one (nor
	// with its sibling tenants).
	old := r.Tenant("alpha").Epoch()
	if ten.Epoch() == old {
		t.Fatal("restarted tenant reused the old process's epoch")
	}
	if ten.Epoch() == r2.Tenant("beta").Epoch() {
		t.Fatal("two tenants share an epoch")
	}
}
