package tuned

import (
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tenant"
	"repro/internal/wire"
)

// testRegistry builds a persistent registry with the given tenants over
// the sleep roster.
func testRegistry(t *testing.T, root string, names ...string) *tenant.Registry {
	t.Helper()
	reg, err := tenant.NewRegistry(tenant.Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		spec := tenant.Spec{Name: n, Workload: "sleep",
			Engine: core.EngineSpec{Seed: 3, SnapshotEvery: 50, LeaseTimeoutMS: 250}}
		if err := reg.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

func startTenantServer(t *testing.T, reg *tenant.Registry, opts ...ServerOption) (*Server, string) {
	t.Helper()
	srv := NewTenantServer(reg, opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

func TestTenantHandshakeRouting(t *testing.T) {
	reg := testRegistry(t, t.TempDir(), "default", "team-a")
	_, addr := startTenantServer(t, reg)

	// An explicit tenant lands on that tenant.
	ca, err := Dial(addr, WithTenant("team-a"))
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	if got := ca.Epoch(); got != reg.Tenant("team-a").Epoch() {
		t.Fatalf("team-a session epoch %d, want tenant epoch %d", got, reg.Tenant("team-a").Epoch())
	}

	// No tenant lands on "default".
	cd, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Close()
	if got := cd.Epoch(); got != reg.Tenant("default").Epoch() {
		t.Fatalf("default session epoch %d, want tenant epoch %d", got, reg.Tenant("default").Epoch())
	}
	if cd.Epoch() == ca.Epoch() {
		t.Fatal("two tenants share an epoch")
	}

	// An unknown tenant is rejected at the handshake.
	_, err = Dial(addr, WithTenant("ghost"))
	re, ok := err.(*RemoteError)
	if !ok || re.Code != wire.CodeUnknownTenant {
		t.Fatalf("unknown tenant dial: %v, want RemoteError %d", err, wire.CodeUnknownTenant)
	}

	// The aggregate view lists both tenants.
	resp, err := ca.Tenants()
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Tenants) != 2 || resp.Tenants[0].Name != "default" || resp.Tenants[1].Name != "team-a" {
		t.Fatalf("aggregate view %+v, want [default team-a]", resp.Tenants)
	}
}

// TestWrongTenantReportsRejected: trial IDs leased from one tenant are
// dropped — never applied — when reported against another, whichever
// epoch the report carries.
func TestWrongTenantReportsRejected(t *testing.T) {
	reg := testRegistry(t, t.TempDir(), "default", "team-a", "team-b")
	_, addr := startTenantServer(t, reg)

	ca, err := Dial(addr, WithTenant("team-a"))
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	cb, err := Dial(addr, WithTenant("team-b"))
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()

	lb, err := ca.LeaseN(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(lb.Trials) == 0 {
		t.Fatal("no trials leased")
	}
	results := make([]core.TrialResult, len(lb.Trials))
	for i, tr := range lb.Trials {
		results[i] = core.TrialResult{ID: tr.ID, Value: 1}
	}

	// Report A's trials through B's session under A's epoch: B's tenant
	// runs another epoch, so the whole batch is dropped.
	applied, dropped, err := cb.CompleteN(lb.Epoch, results)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 0 || len(dropped) != len(results) {
		t.Fatalf("cross-tenant report with foreign epoch: applied=%v dropped=%v", applied, dropped)
	}

	// That report leased B's next trials ahead, and B's engine numbers
	// its trials from 1 as A's does: hand them back, so that under B's
	// own epoch the IDs are unknown to B's engine and dropped too.
	cb.releaseHeld(nil, false)
	applied, dropped, err = cb.CompleteN(cb.Epoch(), results)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 0 || len(dropped) != len(results) {
		t.Fatalf("cross-tenant report with own epoch: applied=%v dropped=%v", applied, dropped)
	}

	// The same batch through A's own session applies cleanly.
	applied, _, err = ca.CompleteN(lb.Epoch, results)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != len(results) {
		t.Fatalf("own-tenant report applied %d of %d", len(applied), len(results))
	}
}

// TestDrainCheckpointsEveryTenant: Drain must write a final checkpoint
// for every resident tenant — not just one engine — in deterministic
// (sorted) order, so a SIGTERM'd multi-tenant server loses nothing.
func TestDrainCheckpointsEveryTenant(t *testing.T) {
	root := t.TempDir()
	names := []string{"alpha", "beta", "gamma"}
	reg := testRegistry(t, root, names...)
	srv, addr := startTenantServer(t, reg)

	// Complete a few trials on each tenant so every engine is resident
	// and has state worth snapshotting (below SnapshotEvery, so nothing
	// has checkpointed on its own).
	for _, n := range names {
		c, err := Dial(addr, WithTenant(n))
		if err != nil {
			t.Fatal(err)
		}
		lb, err := c.LeaseN(3)
		if err != nil {
			t.Fatal(err)
		}
		results := make([]core.TrialResult, len(lb.Trials))
		for i, tr := range lb.Trials {
			results[i] = core.TrialResult{ID: tr.ID, Value: 2}
		}
		if _, _, err := c.CompleteN(lb.Epoch, results); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	if got := reg.Resident(); got != len(names) {
		t.Fatalf("resident=%d, want %d", got, len(names))
	}

	if err := srv.Drain(2 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, n := range names {
		if !core.HasCheckpoint(filepath.Join(root, n, "ckpt")) {
			t.Errorf("tenant %s has no checkpoint after drain", n)
		}
	}

	// Deterministic drain order: CheckpointAll reports sorted names.
	order, err := reg.CheckpointAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Fatalf("checkpoint order %v not sorted", order)
		}
	}
}
