package tuned

import (
	"io"
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

	// Under B's own epoch the IDs are unknown to B's engine: dropped too.
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

// v1Client is a hand-rolled protocol-1 client: it writes v1-stamped
// frames and refuses reply frames not stamped v1, exactly as an old
// binary's decoder would. It exists to prove the backward-compatibility
// contract without depending on the current Client.
type v1Client struct {
	t    *testing.T
	conn net.Conn
}

func dialV1(t *testing.T, addr string) *v1Client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return &v1Client{t: t, conn: conn}
}

func (c *v1Client) close() { c.conn.Close() }

func (c *v1Client) write(typ wire.Type, v wire.Payload) {
	c.t.Helper()
	frame, err := wire.EncodeV(1, typ, v)
	if err != nil {
		c.t.Fatal(err)
	}
	if _, err := c.conn.Write(frame); err != nil {
		c.t.Fatal(err)
	}
}

// read returns the next frame, asserting the v1 version stamp a v1
// decoder would enforce (the current ReadFrame tolerates both, so the
// raw header byte is checked instead).
func (c *v1Client) read() (wire.Type, []byte) {
	c.t.Helper()
	hdr := make([]byte, wire.HeaderSize)
	if _, err := io.ReadFull(c.conn, hdr); err != nil {
		c.t.Fatal(err)
	}
	if hdr[4] != 1 {
		c.t.Fatalf("reply frame stamped v%d, a v1 client would refuse it", hdr[4])
	}
	n := int(hdr[8])<<24 | int(hdr[9])<<16 | int(hdr[10])<<8 | int(hdr[11])
	payload := make([]byte, n)
	if _, err := io.ReadFull(c.conn, payload); err != nil {
		c.t.Fatal(err)
	}
	return wire.Type(hdr[5]), payload
}

func (c *v1Client) roundTrip(reqType wire.Type, req wire.Payload, respType wire.Type, resp wire.Payload) {
	c.t.Helper()
	c.write(reqType, req)
	typ, payload := c.read()
	if typ != respType {
		c.t.Fatalf("%s answered with %s, want %s", reqType, typ, respType)
	}
	if err := resp.DecodeFrom(payload); err != nil {
		c.t.Fatal(err)
	}
}

func (c *v1Client) hello(h wire.Hello) wire.HelloAck {
	c.t.Helper()
	var ack wire.HelloAck
	c.roundTrip(wire.THello, &h, wire.THelloAck, &ack)
	return ack
}

func (c *v1Client) leaseN(n int) wire.LeaseNResp {
	c.t.Helper()
	var resp wire.LeaseNResp
	c.roundTrip(wire.TLeaseN, &wire.LeaseNReq{N: n}, wire.TTrials, &resp)
	return resp
}

func (c *v1Client) completeN(req wire.CompleteNReq) wire.AckResp {
	c.t.Helper()
	var ack wire.AckResp
	c.roundTrip(wire.TCompleteN, &req, wire.TAck, &ack)
	return ack
}

// TestVPrevClientOnDefaultTenant is the backward-compatibility leg: a
// protocol-1 client — v1-stamped frames, no tenant field in its Hello —
// must tune against the "default" tenant of a v2 multi-tenant server,
// and every reply frame must be stamped v1 so the old decoder accepts
// it.
func TestVPrevClientOnDefaultTenant(t *testing.T) {
	reg := testRegistry(t, t.TempDir(), "default", "team-a")
	_, addr := startTenantServer(t, reg)

	c := dialV1(t, addr)
	defer c.close()

	// The v1 Hello: proto 1, no tenant field (it predates the field).
	ack := c.hello(wire.Hello{Proto: 1, Name: "v1-worker"})
	if ack.Proto != 1 {
		t.Fatalf("ack.Proto = %d for a v1 session", ack.Proto)
	}
	if ack.Epoch != reg.Tenant("default").Epoch() {
		t.Fatal("v1 session not routed to the default tenant")
	}

	// Lease and complete one batch through v1 frames: the old client
	// still tunes.
	lresp := c.leaseN(2)
	if len(lresp.Trials) == 0 {
		t.Fatal("v1 client leased no trials")
	}
	creq := wire.CompleteNReq{Epoch: lresp.Epoch}
	for _, tr := range lresp.Trials {
		creq.Results = append(creq.Results, wire.Result{ID: tr.ID, Value: 1.5})
	}
	cack := c.completeN(creq)
	if len(cack.Applied) != len(creq.Results) {
		t.Fatalf("v1 completions applied=%v dropped=%v", cack.Applied, cack.Dropped)
	}

	// And the work landed on the default tenant, nowhere else.
	eng, _, release, err := reg.Acquire("default")
	if err != nil {
		t.Fatal(err)
	}
	got := eng.Iterations()
	release()
	if got != len(creq.Results) {
		t.Fatalf("default tenant at %d iterations, want %d", got, len(creq.Results))
	}
}
