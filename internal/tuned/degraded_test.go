package tuned

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nominal"
	"repro/internal/param"
)

// TestHeartbeatDropsReclaimedLease pins the worker's dropped-lease
// path: when a batch overruns the lease TTL and the heartbeat interval
// is too slow to extend in time, the heartbeat response reports the
// not-yet-measured trials dead and measureBatch skips them instead of
// wasting the measurement.
func TestHeartbeatDropsReclaimedLease(t *testing.T) {
	_, _, addr := startServer(t, []core.Option{core.WithLeaseTimeout(40 * time.Millisecond)})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var calls atomic.Int32
	w := &Worker{
		Client: c,
		Measure: func(algo int, cfg param.Config) float64 {
			calls.Add(1)
			// Overrun the TTL by far: by the time this returns, the
			// heartbeat (which fires after the leases already expired)
			// has learned both leases are dead.
			time.Sleep(250 * time.Millisecond)
			return 1
		},
		// One heartbeat at t=80ms — after the 40ms TTL, so the extension
		// comes too late and the server's answer marks the leases dead.
		HeartbeatEvery: 80 * time.Millisecond,
	}
	lb, err := c.LeaseN(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(lb.Trials) != 2 {
		t.Fatalf("leased %d trials, want 2", len(lb.Trials))
	}
	results, fails, abandoned := w.measureBatch(context.Background(), c.Session(), lb)
	if abandoned {
		t.Fatal("measureBatch reported abandoned without cancellation")
	}
	// The first trial was already measuring when the heartbeat learned
	// of the reclamation; the second must have been skipped.
	if got := calls.Load(); got != 1 {
		t.Fatalf("measure called %d times, want 1 (second trial skipped as dropped)", got)
	}
	if len(results)+len(fails) != 1 {
		t.Fatalf("batch produced %d results and %d fails, want 1 total", len(results), len(fails))
	}
	// Reporting the overrun measurement is harmless: the server drops it.
	applied, dropped, err := c.CompleteN(lb.Epoch, results)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 0 || len(dropped) != 1 {
		t.Fatalf("expired completion: applied %v dropped %v, want all dropped", applied, dropped)
	}
}

// TestAbsorbDedup pins the (worker, seq) idempotency of the absorb
// endpoint: a retried sequence number is acknowledged as a duplicate
// and never double-applied.
func TestAbsorbDedup(t *testing.T) {
	_, eng, addr := startServer(t, nil)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	obs := []nominal.Observation{{Arm: 0, Value: 1}, {Arm: 1, Value: 2}, {Arm: 0, Value: 3, Failed: true}}
	applied, dup, err := c.Absorb(77, 1, obs)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 3 || dup {
		t.Fatalf("Absorb(seq=1) = (%d, %v), want (3, false)", applied, dup)
	}
	// A lost-ack retry resends the same seq: must be a no-op duplicate.
	applied, dup, err = c.Absorb(77, 1, obs)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 0 || !dup {
		t.Fatalf("retried Absorb(seq=1) = (%d, %v), want (0, true)", applied, dup)
	}
	// The next chunk advances the seq and applies.
	applied, dup, err = c.Absorb(77, 2, obs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1 || dup {
		t.Fatalf("Absorb(seq=2) = (%d, %v), want (1, false)", applied, dup)
	}
	// Another worker's seq space is independent.
	if applied, _, err = c.Absorb(78, 1, obs[:2]); err != nil || applied != 2 {
		t.Fatalf("Absorb(worker=78) = (%d, %v), want 2 applied", applied, err)
	}
	if got := eng.Stats().Absorbed; got != 6 {
		t.Fatalf("engine absorbed %d observations, want 6", got)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Absorbed != 6 {
		t.Fatalf("wire StatsResp.Absorbed = %d, want 6", st.Absorbed)
	}
}

// TestSessionCap checks one connection cannot hoard leases past the
// per-session cap and that the cap is returned as trials complete.
func TestSessionCap(t *testing.T) {
	_, _, addr := startServer(t, nil, WithSessionCap(2))
	c, err := Dial(addr, WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	lb, err := c.LeaseN(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(lb.Trials) != 2 {
		t.Fatalf("leased %d trials under cap 2, want 2", len(lb.Trials))
	}
	// At the cap: an empty busy response with a retry hint.
	busy, err := c.LeaseN(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(busy.Trials) != 0 || busy.Retry <= 0 {
		t.Fatalf("over-cap lease = %d trials, retry %v; want busy response", len(busy.Trials), busy.Retry)
	}
	// Completing one trial frees one slot.
	if _, _, err := c.CompleteN(lb.Epoch, []core.TrialResult{{ID: lb.Trials[0].ID, Value: 1}}); err != nil {
		t.Fatal(err)
	}
	again, err := c.LeaseN(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Trials) != 1 {
		t.Fatalf("leased %d trials after freeing one slot, want 1", len(again.Trials))
	}
}

// TestGlobalCap checks the server-wide in-flight bound across sessions.
func TestGlobalCap(t *testing.T) {
	_, _, addr := startServer(t, nil, WithGlobalCap(3))
	c1, err := Dial(addr, WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(addr, WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	lb, err := c1.LeaseN(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(lb.Trials) != 3 {
		t.Fatalf("leased %d trials under global cap 3, want 3", len(lb.Trials))
	}
	busy, err := c2.LeaseN(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(busy.Trials) != 0 || busy.Retry <= 0 {
		t.Fatalf("second session leased %d trials at global cap, retry %v; want busy", len(busy.Trials), busy.Retry)
	}
}

// TestDrain checks the graceful shutdown path: no new leases while
// draining, in-flight completions still accepted, final checkpoint
// written, and the listener closed at the end.
func TestDrain(t *testing.T) {
	dir := t.TempDir()
	eng, err := core.NewTuner(testAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 1,
		core.WithCheckpoint(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	c, err := Dial(ln.Addr().String(), WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	lb, err := c.LeaseN(1)
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(2 * time.Second) }()
	// Wait for the drain flag, then check leases are refused.
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}
	busy, err := c.LeaseN(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(busy.Trials) != 0 || !busy.Draining {
		t.Fatalf("lease during drain = %d trials, draining %v; want draining busy", len(busy.Trials), busy.Draining)
	}
	// The in-flight trial can still complete; that unblocks the drain.
	if _, _, err := c.CompleteN(lb.Epoch, []core.TrialResult{{ID: lb.Trials[0].ID, Value: 4.5}}); err != nil {
		t.Fatal(err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain = %v", err)
	}
	if st := eng.Stats(); st.InFlight != 0 {
		t.Fatalf("drained with %d in flight", st.InFlight)
	}
	// The final checkpoint must make the completed iteration durable:
	// a resume with no journal replay still sees it.
	rt, err := core.NewTuner(testAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 1, core.WithCheckpoint(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Iterations() != 1 {
		t.Fatalf("resumed at iteration %d after drain checkpoint, want 1", rt.Iterations())
	}
	// Second Drain is a no-op.
	if err := srv.Drain(time.Second); err != nil {
		t.Fatalf("second Drain = %v", err)
	}
}

// TestWorkerIdleWaitJitter pins the satellite contract: the idle wait
// is jittered within (retry/2, retry] of the effective hint.
func TestWorkerIdleWaitJitter(t *testing.T) {
	w := &Worker{IdleRetry: 8 * time.Millisecond}
	for i := 0; i < 100; i++ {
		d := w.idleWait(0)
		if d <= 4*time.Millisecond || d > 8*time.Millisecond {
			t.Fatalf("idleWait(0) = %v, want in (4ms, 8ms]", d)
		}
		if d = w.idleWait(20 * time.Millisecond); d <= 10*time.Millisecond || d > 20*time.Millisecond {
			t.Fatalf("idleWait(20ms) = %v, want in (10ms, 20ms]", d)
		}
	}
	// Default floor when neither hint nor IdleRetry is set.
	if d := (&Worker{}).idleWait(0); d <= 0 || d > 2*time.Millisecond {
		t.Fatalf("default idleWait = %v, want in (0, 2ms]", d)
	}
}
