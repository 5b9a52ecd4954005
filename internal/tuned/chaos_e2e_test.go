package tuned

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/nominal"
)

// TestDegradedModeReconnect kills the only server under a fallback-
// equipped worker, lets the worker measure against its local tuner,
// restarts the server over the same engine, and checks the locally
// learned delta is absorbed and leased operation resumes.
func TestDegradedModeReconnect(t *testing.T) {
	if testing.Short() {
		t.Skip("partition/reconnect session in -short mode")
	}
	const iters = 600
	algos, bank := e2eBank()
	eng, err := core.NewTuner(algos, nominal.NewEpsilonGreedy(0.10), nil, 3,
		core.WithLeaseTimeout(200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	srv1 := NewServer(eng, WithTrialTarget(iters))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go srv1.Serve(ln)

	c, err := Dial(addr,
		WithRetry(2, 2*time.Millisecond, 10*time.Millisecond),
		WithRequestTimeout(250*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w := &Worker{
		Client:  c,
		Measure: replayBank(bank, 200*time.Microsecond),
		Batch:   4,
		Fallback: &Fallback{
			Selector:   func() nominal.Selector { return nominal.NewEpsilonGreedy(0.10) },
			Seed:       17,
			ProbeEvery: 25 * time.Millisecond,
		},
	}
	done := make(chan error, 1)
	go func() {
		_, err := w.Run(context.Background())
		done <- err
	}()

	// Let the worker establish leased operation, then kill the server.
	for eng.Stats().Completed < 20 {
		time.Sleep(2 * time.Millisecond)
	}
	srv1.Close()

	// Partition: the retry budget (3 quick attempts) exhausts fast, and
	// the worker must keep measuring locally.
	deadline := time.Now().Add(5 * time.Second)
	for w.Stats().DegradedTrials < 50 {
		if time.Now().After(deadline) {
			t.Fatalf("worker never degraded: stats %+v", w.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Heal: a new server process over the same engine, same address.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(eng, WithTrialTarget(iters))
	go srv2.Serve(ln2)
	defer srv2.Close()

	if err := <-done; err != nil {
		t.Fatalf("worker Run = %v", err)
	}
	st := w.Stats()
	if st.Partitions < 1 || st.DegradedTrials == 0 {
		t.Fatalf("worker never entered degraded mode: %+v", st)
	}
	if st.Absorbed == 0 {
		t.Fatalf("no degraded observations absorbed on reconnect: %+v", st)
	}
	est := eng.Stats()
	if est.Absorbed != uint64(st.Absorbed) {
		t.Fatalf("engine absorbed %d, worker says %d", est.Absorbed, st.Absorbed)
	}
	// The absorbed delta is visible in the engine's counts, and the bank
	// winner holds across the partition.
	if winner := mostSelected(eng.Counts()); algos[winner].Name != "charlie" {
		t.Fatalf("winner after partition = %s, want charlie (counts %v)", algos[winner].Name, eng.Counts())
	}
}

// TestChaosSoakLoopback is the short chaos soak behind `make chaos`: a
// full loopback topology where every connection runs through the fault
// injection layer — latency, fragmentation, resets, corruption, and one
// partition long enough to force every worker through degraded mode —
// and the session must still finish with a consistent ledger and the
// bank's winner.
func TestChaosSoakLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak in -short mode")
	}
	const (
		iters   = 500
		workers = 3
	)
	algos, bank := e2eBank()
	eng, err := core.NewTuner(algos, nominal.NewEpsilonGreedy(0.10), nil, 5,
		core.WithLeaseTimeout(250*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	cnet := chaos.New(chaos.Config{
		Seed:         11,
		LatencyMax:   300 * time.Microsecond,
		FragmentProb: 0.15,
		ResetProb:    0.01,
		CorruptProb:  0.01,
	})
	// One fault domain for both sides: the server accepts through the
	// chaos network and every worker dials through it, so injections and
	// the partition hit each direction of each connection.
	ln, err := cnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, WithTrialTarget(iters), WithSessionCap(16), WithGlobalCap(48))
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()

	measure := replayBank(bank, 500*time.Microsecond)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	wstats := make([]*Worker, workers)
	for i := 0; i < workers; i++ {
		c, err := Dial(addr,
			WithDialer(cnet.DialTimeout),
			WithRetry(2, 2*time.Millisecond, 20*time.Millisecond),
			WithRequestTimeout(150*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		w := &Worker{
			Client:         c,
			Measure:        measure,
			Batch:          2 + i,
			HeartbeatEvery: 60 * time.Millisecond,
			Fallback: &Fallback{
				Selector:   func() nominal.Selector { return nominal.NewEpsilonGreedy(0.10) },
				Seed:       int64(100 + i),
				ProbeEvery: 25 * time.Millisecond,
			},
			ID: uint64(1 + i),
		}
		wstats[i] = w
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = w.Run(context.Background())
		}(i)
	}

	// Mid-run, partition the worker side long enough to outlast every
	// retry budget (3 attempts × ≤150ms timeouts ≪ 1.5s).
	for eng.Stats().Completed < iters/4 {
		time.Sleep(5 * time.Millisecond)
	}
	cnet.PartitionFor(1500 * time.Millisecond)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	degraded := 0
	for _, w := range wstats {
		if w.Stats().Partitions > 0 {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatal("partition did not force any worker into degraded mode")
	}
	// Ledger audit: every lease is accounted for exactly once. Leases
	// whose responses were eaten by a reset are still in flight until
	// their TTL; wait them out and reclaim.
	reclaim := time.Now().Add(3 * time.Second)
	for eng.Stats().InFlight > 0 {
		if time.Now().After(reclaim) {
			t.Fatalf("soak left %d leases in flight past their TTL", eng.Stats().InFlight)
		}
		eng.ReclaimExpired()
		time.Sleep(10 * time.Millisecond)
	}
	st := eng.Stats()
	if st.Leased != st.Completed+st.Failed+st.Expired+st.Released {
		t.Fatalf("lease ledger does not balance: %+v", st)
	}
	if winner := mostSelected(eng.Counts()); algos[winner].Name != "charlie" {
		t.Fatalf("chaos winner = %s, want charlie (counts %v)", algos[winner].Name, eng.Counts())
	}
	cs := cnet.Stats()
	if cs.Resets+cs.Corruptions == 0 {
		t.Fatalf("soak injected no faults: %+v", cs)
	}
}
