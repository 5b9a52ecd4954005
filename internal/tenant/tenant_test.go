package tenant

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/checkpoint/crashtest"
	"repro/internal/core"
	"repro/internal/ctxtune"
	"repro/internal/nominal"
	"repro/internal/wire"
)

// classes are the feature vectors a contextual tenant's trials
// alternate between: a cheap input class and one a hundred times
// dearer, far enough apart in cost for the partitioner to split them.
var classes = []ctxtune.Features{{1}, {100}}

// drive completes n trials against a tenant's engine through the
// registry, leaving the acquire released between trials so the LRU may
// act. A contextual engine leases under the alternating classes.
func drive(t *testing.T, r *Registry, name string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		eng, _, release, err := r.Acquire(name)
		if err != nil {
			t.Fatalf("acquire %s: %v", name, err)
		}
		scale := 1.0
		var leases []core.Trial
		if ce, ok := eng.(*ctxtune.Engine); ok {
			f := classes[i%2]
			scale = f[0]
			leases, err = ce.LeaseNFor(f, 1)
		} else {
			leases, err = eng.LeaseN(1)
		}
		if err != nil || len(leases) != 1 {
			t.Fatalf("lease on %s: %v (%d)", name, err, len(leases))
		}
		// Arm index sets the cost so tenants develop distinct winners.
		for _, cerr := range eng.CompleteN([]core.TrialResult{{ID: leases[0].ID, Value: scale * float64(1+leases[0].Algo)}}) {
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

// ctxSpec is sleepSpec made contextual, with one bucket that splits
// after 8 samples, so a dozen trials of drive already split it.
func ctxSpec(name string) Spec {
	s := sleepSpec(name)
	s.Contexts = &Contexts{Buckets: 1, SplitMin: 8}
	return s
}

// specRows are the flat and the contextual form of the same tenant.
var specRows = []struct {
	name string
	spec func(name string) Spec
}{{"flat", sleepSpec}, {"contextual", ctxSpec}}

// contextCount is a contextual engine's live context count (0 for a
// flat engine).
func contextCount(eng Engine) int {
	if ce, ok := eng.(*ctxtune.Engine); ok {
		return ce.ContextCount()
	}
	return 0
}

// openFiles counts this process's descriptors open on files under dir,
// read from /proc/self/fd; it skips the test where that does not exist.
func openFiles(t *testing.T, dir string) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open files: %v", err)
	}
	dir, err = filepath.EvalSymlinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.HasPrefix(target, dir+string(filepath.Separator)) {
			n++
		}
	}
	return n
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
	changed.Engine.Drift = true
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
// Best/Counts — and, for a contextual tenant, every context it had.
func TestLRUSpillAndWarmRestart(t *testing.T) {
	for _, row := range specRows {
		t.Run(row.name, func(t *testing.T) {
			root := t.TempDir()
			r, err := NewRegistry(Config{Root: root, MaxResident: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []string{"alpha", "beta"} {
				if err := r.Register(row.spec(n)); err != nil {
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
			wantContexts := contextCount(eng)
			release()
			if row.name == "contextual" && wantContexts < 2 {
				t.Fatalf("%d contexts after 20 trials, want a split into 2", wantContexts)
			}

			// Materializing beta must spill alpha (cap 1) with a checkpoint.
			drive(t, r, "beta", 3)
			if got := r.Resident(); got != 1 {
				t.Fatalf("resident=%d after spill, want 1", got)
			}
			alphaDir := filepath.Join(root, "alpha", "ckpt")
			if !core.HasCheckpoint(alphaDir) {
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
			if gotCounts := eng.Counts(); !slices.Equal(gotCounts, wantCounts) {
				t.Fatalf("restarted counts %v, want %v", gotCounts, wantCounts)
			}
			gotAlgo, _, gotVal := eng.Best()
			if gotAlgo != wantAlgo || gotVal != wantVal {
				t.Fatalf("restarted best (%d, %g), want (%d, %g)", gotAlgo, gotVal, wantAlgo, wantVal)
			}
			if got := contextCount(eng); got != wantContexts {
				t.Fatalf("restarted with %d contexts, want %d", got, wantContexts)
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
		})
	}
}

// TestSpillLeavesNoSegmentOpen: a tenant spilled under the residency
// cap holds no file open — its checkpoint syncs and closes the journal
// segment, which for a contextual tenant holds its contexts' records
// too — while the resident tenant still appends to its own segment.
func TestSpillLeavesNoSegmentOpen(t *testing.T) {
	for _, row := range []struct {
		name   string
		spec   func(name string) Spec
		segDir string // segment directory under the tenant's ckpt/
		open   int    // files a resident tenant holds: its segment
	}{
		{"flat", sleepSpec, "", 1},
		{"contextual", ctxSpec, "", 1},
	} {
		t.Run(row.name, func(t *testing.T) {
			disk := crashtest.Install(t)
			root := t.TempDir()
			r, err := NewRegistry(Config{Root: root, MaxResident: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []string{"alpha", "beta"} {
				if err := r.Register(row.spec(n)); err != nil {
					t.Fatal(err)
				}
			}
			alpha, beta := filepath.Join(root, "alpha", "ckpt"), filepath.Join(root, "beta", "ckpt")
			drive(t, r, "alpha", 12)
			if got := disk.Handles(filepath.Join(alpha, row.segDir)); got != 1 {
				t.Fatalf("resident alpha holds %d segment handles, want 1", got)
			}
			if got := openFiles(t, alpha); got != row.open {
				t.Fatalf("resident alpha holds %d files open, want %d", got, row.open)
			}
			drive(t, r, "beta", 3)
			if got := r.Resident(); got != 1 {
				t.Fatalf("resident=%d after spill, want 1", got)
			}
			if got := disk.Handles(filepath.Join(alpha, row.segDir)); got != 0 {
				t.Fatalf("spilled alpha holds %d segment handles, want 0", got)
			}
			if got := openFiles(t, alpha); got != 0 {
				t.Fatalf("spilled alpha holds %d files open, want 0", got)
			}
			if got := disk.Handles(filepath.Join(beta, row.segDir)); got != 1 {
				t.Fatalf("resident beta holds %d segment handles, want 1", got)
			}
		})
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
// its state from its own checkpoint directory. A tenant directory holds
// just spec.json and ckpt/.
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
	for _, n := range []string{"alpha", "beta"} {
		entries, err := os.ReadDir(filepath.Join(root, n))
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range entries {
			got = append(got, e.Name())
		}
		if len(got) != 2 || got[0] != "ckpt" || got[1] != "spec.json" {
			t.Fatalf("tenant %s directory holds %v, want [ckpt spec.json]", n, got)
		}
	}

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

// TestNewSingle: a pre-built engine becomes the resident "default"
// tenant of a root-less registry, which hands that very engine out,
// checkpoints it on CheckpointAll and never spills it.
func TestNewSingle(t *testing.T) {
	algos, err := BuiltinRoster("sleep")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	eng, err := core.EngineSpec{Seed: 7}.Build(algos, nominal.NewEpsilonGreedy(0.1), nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewSingle(eng)
	if names := r.Names(); len(names) != 1 || names[0] != DefaultName {
		t.Fatalf("names %v, want [%s]", names, DefaultName)
	}
	drive(t, r, DefaultName, 5)
	got, ten, release, err := r.Acquire(DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	release()
	if got != Engine(eng) {
		t.Fatal("Acquire returned another engine than the wrapped one")
	}
	if ten.Hash() != wire.ConfigHash([]string{"sleep-steady", "sleep-tuned", "sleep-laggard"}) {
		t.Fatalf("hash %08x does not cover the engine's roster", ten.Hash())
	}
	if order, err := r.CheckpointAll(); err != nil || len(order) != 1 {
		t.Fatalf("CheckpointAll = %v, %v", order, err)
	}
	if infos := r.Snapshot(); len(infos) != 1 || !infos[0].Resident || infos[0].Iterations != 5 {
		t.Fatalf("snapshot %+v, want one resident tenant at 5 iterations", infos)
	}
	// The engine checkpoints into its own directory.
	if !core.HasCheckpoint(dir) {
		t.Fatal("engine wrote no checkpoint")
	}
}
