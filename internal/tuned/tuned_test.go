package tuned

import (
	"context"
	"errors"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nominal"
	"repro/internal/param"
)

// testAlgos is a small mixed roster: a parameterless arm and a tunable
// one, with deterministic synthetic measurements.
func testAlgos() []core.Algorithm {
	return []core.Algorithm{
		{Name: "plain"},
		{Name: "tuned", Space: param.NewSpace(param.NewRatio("alpha", 1, 10))},
	}
}

func testMeasure(algo int, cfg param.Config) float64 {
	v := float64(3 + 2*algo)
	for _, x := range cfg {
		v += 0.01 * x
	}
	return v
}

// startServer builds an engine + server on an ephemeral port and
// returns them with the address, closing the server at cleanup.
func startServer(t *testing.T, opts []core.Option, sopts ...ServerOption) (*Server, *core.Tuner, string) {
	t.Helper()
	eng, err := core.NewTuner(testAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 1, opts...)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, sopts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, eng, ln.Addr().String()
}

func TestHandshakeAndRoster(t *testing.T) {
	srv, _, addr := startServer(t, nil)
	c, err := Dial(addr, WithClientName("t"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	algos := c.Algos()
	if len(algos) != 2 || algos[0] != "plain" || algos[1] != "tuned" {
		t.Fatalf("Algos() = %v", algos)
	}
	if c.Epoch() != srv.Epoch() {
		t.Fatalf("client epoch %d, server %d", c.Epoch(), srv.Epoch())
	}
	if c.LeaseTTL() != core.DefaultLeaseTimeout {
		t.Fatalf("LeaseTTL() = %v, want %v", c.LeaseTTL(), core.DefaultLeaseTimeout)
	}
}

func TestHandshakeConfigMismatch(t *testing.T) {
	_, _, addr := startServer(t, nil)
	_, err := Dial(addr, WithExpectedHash(0xdeadbeef), WithRetry(0, time.Millisecond, time.Millisecond))
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != 409 {
		t.Fatalf("Dial with wrong hash = %v, want RemoteError 409", err)
	}
}

func TestLeaseCompleteRoundTrip(t *testing.T) {
	srv, eng, addr := startServer(t, nil)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	lb, err := c.LeaseN(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(lb.Trials) != 4 || lb.Epoch != srv.Epoch() || lb.Done {
		t.Fatalf("LeaseN = %d trials, epoch %d, done %v", len(lb.Trials), lb.Epoch, lb.Done)
	}
	var results []core.TrialResult
	for _, tr := range lb.Trials {
		if tr.Deadline.IsZero() {
			t.Fatalf("trial %d has no deadline under the default TTL", tr.ID)
		}
		results = append(results, core.TrialResult{ID: tr.ID, Value: testMeasure(tr.Algo, tr.Config)})
	}
	applied, dropped, err := c.CompleteN(lb.Epoch, results)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 4 || len(dropped) != 0 {
		t.Fatalf("CompleteN applied %d dropped %d, want 4/0", len(applied), len(dropped))
	}
	// A duplicate report is acknowledged but dropped — idempotency over
	// the wire.
	applied, dropped, err = c.CompleteN(lb.Epoch, results)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 0 || len(dropped) != 4 {
		t.Fatalf("duplicate CompleteN applied %d dropped %d, want 0/4", len(applied), len(dropped))
	}
	if it := eng.Iterations(); it != 4 {
		t.Fatalf("engine iterations = %d, want 4 (duplicates never double-count)", it)
	}

	best, err := c.Best()
	if err != nil {
		t.Fatal(err)
	}
	if best.Algo < 0 || best.Iterations != 4 || best.Name == "" {
		t.Fatalf("Best() = %+v", best)
	}
	// The first CompleteN leased 4 trials ahead; handing them back ends
	// their leases as released, not completed.
	c.releaseHeld(nil, false)
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 4 || st.Leased != 8 || st.Released != 4 || st.InFlight != 0 {
		t.Fatalf("Stats() = %+v", st)
	}
}

// TestWrongEpochDropped: reports stamped with another server session's
// epoch are acknowledged but never applied.
func TestWrongEpochDropped(t *testing.T) {
	_, eng, addr := startServer(t, nil)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	lb, err := c.LeaseN(2)
	if err != nil {
		t.Fatal(err)
	}
	stale := lb.Epoch + 1
	applied, dropped, err := c.CompleteN(stale, []core.TrialResult{{ID: lb.Trials[0].ID, Value: 1}})
	if err != nil || len(applied) != 0 || len(dropped) != 1 {
		t.Fatalf("stale-epoch CompleteN = (%v, %v, %v), want all dropped", applied, dropped, err)
	}
	if alive, _ := c.Heartbeat(stale, []uint64{lb.Trials[0].ID}); len(alive) != 0 {
		t.Fatalf("stale-epoch Heartbeat reported %v alive", alive)
	}
	if fAppl, fDrop, err := c.FailN(stale, []core.TrialFailure{{ID: lb.Trials[1].ID}}); err != nil || len(fAppl) != 0 || len(fDrop) != 1 {
		t.Fatalf("stale-epoch FailN = (%v, %v, %v), want all dropped", fAppl, fDrop, err)
	}
	// The stale-epoch CompleteN still leased the caller's batch of two
	// ahead, the only leases beyond the first two.
	if st := eng.Stats(); st.Completed != 0 || st.Failed != 0 || st.InFlight != 4 {
		t.Fatalf("engine touched by stale-epoch reports: %+v", st)
	}
	// The genuine epoch still works.
	applied, _, err = c.CompleteN(lb.Epoch, []core.TrialResult{{ID: lb.Trials[0].ID, Value: 1}})
	if err != nil || len(applied) != 1 {
		t.Fatalf("live-epoch CompleteN = (%v, %v)", applied, err)
	}
}

// TestWorkerRunsToTarget: four workers drain a trial target through the
// full wire loop and the engine accounts every trial.
func TestWorkerRunsToTarget(t *testing.T) {
	const target = 120
	_, eng, addr := startServer(t, nil, WithTrialTarget(target))
	var wg sync.WaitGroup
	total := 0
	var mu sync.Mutex
	for i := 0; i < 4; i++ {
		batch := 1 + i*2 // mixed batch sizes: 1, 3, 5, 7
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			w := &Worker{Client: c, Measure: testMeasure, Batch: batch}
			n, err := w.Run(context.Background())
			if err != nil {
				t.Errorf("worker: %v", err)
			}
			mu.Lock()
			total += n
			mu.Unlock()
		}()
	}
	wg.Wait()
	if it := eng.Iterations(); it < target {
		t.Fatalf("engine iterations = %d, want >= %d", it, target)
	}
	if st := eng.Stats(); st.Completed != uint64(total) {
		t.Fatalf("engine completed %d, workers reported %d", st.Completed, total)
	}
	if algo, _, _ := eng.Best(); algo != 0 {
		t.Fatalf("best algo = %d, want 0 (the cheap arm)", algo)
	}
}

// TestWorkerPanicBecomesFailN: a panicking measurement reaches the
// server as a failed trial, not a dead connection.
func TestWorkerPanicBecomesFailN(t *testing.T) {
	_, eng, addr := startServer(t, nil, WithTrialTarget(20))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n := 0
	w := &Worker{Client: c, Batch: 2, Measure: func(algo int, cfg param.Config) float64 {
		n++
		if n%5 == 0 {
			panic("boom")
		}
		if n%7 == 0 {
			return math.NaN() // must travel as a FailN, JSON can't carry it
		}
		return testMeasure(algo, cfg)
	}}
	if _, err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Failed == 0 {
		t.Fatalf("no failures recorded: %+v", st)
	}
	fs := eng.FailureStats()
	if fs.Panics == 0 {
		t.Fatalf("panics not classified: %+v", fs)
	}
}

// TestClientReconnectAcrossRestart: a server restart inside the retry
// budget is invisible to the caller except through the changed epoch.
func TestClientReconnectAcrossRestart(t *testing.T) {
	eng, err := core.NewTuner(testAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := NewServer(eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go srv1.Serve(ln)

	c, err := Dial(addr, WithRetry(20, 10*time.Millisecond, 100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	lb, err := c.LeaseN(1)
	if err != nil {
		t.Fatal(err)
	}
	epoch1 := lb.Epoch

	srv1.Close()
	// Restart on the same address after a gap the backoff must ride out.
	time.Sleep(50 * time.Millisecond)
	eng2, err := core.NewTuner(testAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(eng2)
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(ln2)
	defer srv2.Close()

	lb2, err := c.LeaseN(1)
	if err != nil {
		t.Fatalf("LeaseN across restart: %v", err)
	}
	if lb2.Epoch == epoch1 {
		t.Fatal("epoch unchanged across restart")
	}
	// The pre-restart lease completes against the new server as a
	// harmless drop: its epoch is dead.
	applied, dropped, err := c.CompleteN(epoch1, []core.TrialResult{{ID: lb.Trials[0].ID, Value: 1}})
	if err != nil || len(applied) != 0 || len(dropped) != 1 {
		t.Fatalf("old-epoch completion after restart = (%v, %v, %v), want dropped", applied, dropped, err)
	}
	if st := eng2.Stats(); st.Completed != 0 {
		t.Fatalf("old-epoch completion reached the new engine: %+v", st)
	}
}

// TestLeaseNClampedToMaxBatch: oversized requests are clamped, not
// refused.
func TestLeaseNClampedToMaxBatch(t *testing.T) {
	_, _, addr := startServer(t, nil, WithMaxBatch(3))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	lb, err := c.LeaseN(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(lb.Trials) != 3 {
		t.Fatalf("LeaseN(100) under max batch 3 leased %d", len(lb.Trials))
	}
}

// TestRetryHintUnderMaxInFlight: when the engine's in-flight cap is
// reached the server answers with a backoff hint instead of an error.
func TestRetryHintUnderMaxInFlight(t *testing.T) {
	_, _, addr := startServer(t, []core.Option{core.WithMaxInFlight(2)})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.LeaseN(2); err != nil {
		t.Fatal(err)
	}
	lb, err := c.LeaseN(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(lb.Trials) != 0 || lb.Retry <= 0 {
		t.Fatalf("at the cap: %d trials, retry %v, want empty batch with a hint", len(lb.Trials), lb.Retry)
	}
}
