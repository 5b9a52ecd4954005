package tuned

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nominal"
	"repro/internal/param"
)

// The loopback end-to-end scenario: a full distributed tuning session
// over real TCP on localhost, with every production failure mode
// injected at least once —
//
//   - 16 remote workers with mixed batch sizes drive the server;
//   - one worker is killed mid-lease (its client closed with trials
//     outstanding) and its leases are reclaimed as timeouts;
//   - the server process is killed mid-run and a new one resumes the
//     same session from snapshot + journal on the same address, behind
//     the workers' backs;
//
// and the distributed run must still converge to the same winning
// algorithm as an in-process sequential tuner and an in-process RunPool
// over the same replayed sample bank.

// e2eBank is a deterministic per-arm sample bank with one clear winner
// (arm 2) and near-tied losers — replayed values, so the only source of
// divergence between runs is the trial scheduling itself.
func e2eBank() (algos []core.Algorithm, bank [][]float64) {
	algos = []core.Algorithm{
		{Name: "alpha"},
		{Name: "bravo"},
		{Name: "charlie"},
		{Name: "delta"},
		{Name: "echo"},
		{Name: "foxtrot"},
	}
	bank = [][]float64{
		{11.0, 11.4, 10.8, 11.2},
		{9.5, 9.9, 9.7, 9.6},
		{2.0, 2.2, 2.1, 2.05}, // the winner
		{8.8, 9.1, 8.9, 9.0},
		{12.5, 12.2, 12.8, 12.4},
		{10.1, 10.3, 9.9, 10.2},
	}
	return algos, bank
}

// replayBank cycles deterministically through each arm's samples,
// shared (mutex-protected) across all workers of a run, with an
// optional fixed per-call sleep to give the run real wall-clock extent.
func replayBank(bank [][]float64, sleep time.Duration) core.Measure {
	var mu sync.Mutex
	visits := make([]int, len(bank))
	return func(algo int, _ param.Config) float64 {
		if sleep > 0 {
			time.Sleep(sleep)
		}
		mu.Lock()
		defer mu.Unlock()
		v := bank[algo][visits[algo]%len(bank[algo])]
		visits[algo]++
		return v
	}
}

func mostSelected(counts []int) int {
	best := 0
	for i, n := range counts {
		if n > counts[best] {
			best = i
		}
	}
	return best
}

func TestLoopbackE2EKillAndRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("full distributed session in -short mode")
	}
	const (
		iters    = 1600
		workers  = 16
		seed     = 7
		leaseTTL = 250 * time.Millisecond
	)
	algos, bank := e2eBank()

	// Reference 1: the paper's sequential tuner.
	seq, err := core.NewTuner(algos, nominal.NewEpsilonGreedy(0.10), nil, seed)
	if err != nil {
		t.Fatal(err)
	}
	seq.Run(iters, replayBank(bank, 0))
	seqWinner := mostSelected(seq.Counts())
	if algos[seqWinner].Name != "charlie" {
		t.Fatalf("sequential winner = %s, the bank says charlie", algos[seqWinner].Name)
	}

	// Reference 2: the in-process worker pool on the same bank.
	pool, err := core.NewTuner(algos, nominal.NewEpsilonGreedy(0.10), nil, seed)
	if err != nil {
		t.Fatal(err)
	}
	pool.RunPool(4, iters, replayBank(bank, 0))
	poolWinner := mostSelected(pool.Counts())

	// The distributed session, checkpointed for the mid-run restart.
	dir := t.TempDir()
	eng, err := core.NewTuner(algos, nominal.NewEpsilonGreedy(0.10), nil, seed,
		core.WithCheckpoint(dir, 200), core.WithLeaseTimeout(leaseTTL))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, WithTrialTarget(iters))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go srv.Serve(ln)

	measure := replayBank(bank, time.Millisecond)
	clientOpts := []ClientOption{WithRetry(40, 10*time.Millisecond, 200*time.Millisecond)}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		batch := 1 + i%8 // mixed batch sizes 1..8
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr, clientOpts...)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			w := &Worker{Client: c, Measure: measure, Batch: batch, HeartbeatEvery: 50 * time.Millisecond}
			if _, err := w.Run(context.Background()); err != nil {
				errs <- err
			}
		}()
	}

	// The chaos controller: restart the server once a third of the run
	// is journaled, then kill a victim worker mid-lease.
	var (
		srv2      *Server
		finalEng  = eng
		restarted = make(chan struct{})
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for eng.Iterations() < iters/3 {
			time.Sleep(5 * time.Millisecond)
		}
		// Kill the server. Workers stall on backoff while we resume the
		// session from its snapshot + journal on the same address.
		srv.Close()
		eng2, err := core.NewTuner(algos, nominal.NewEpsilonGreedy(0.10), nil, seed,
			core.WithLeaseTimeout(leaseTTL), core.WithCheckpoint(dir, 200))
		if err != nil {
			errs <- err
			close(restarted)
			return
		}
		if eng2.Iterations() < iters/3-1 {
			t.Errorf("resumed engine at iteration %d, journal should carry at least %d", eng2.Iterations(), iters/3-1)
		}
		srv2 = NewServer(eng2, WithTrialTarget(iters))
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			errs <- err
			close(restarted)
			return
		}
		finalEng = eng2
		go srv2.Serve(ln2)
		close(restarted)

		// Kill one worker mid-lease: lease a batch on a throwaway client
		// and walk away. The resumed server must reclaim the leases as
		// timeouts once the TTL passes without heartbeats.
		victim, err := Dial(addr, clientOpts...)
		if err != nil {
			errs <- err
			return
		}
		lb, err := victim.LeaseN(4)
		if err != nil {
			errs <- err
			return
		}
		if len(lb.Trials) == 0 {
			errs <- err
			return
		}
		victim.Close()
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	<-restarted
	if srv2 == nil {
		t.Fatal("server was never restarted")
	}
	defer srv2.Close()

	// Drain the victim's abandoned leases.
	deadline := time.Now().Add(5 * time.Second)
	for finalEng.InFlight() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d leases still in flight after drain", finalEng.InFlight())
		}
		time.Sleep(20 * time.Millisecond)
		finalEng.ReclaimExpired()
	}

	st := finalEng.Stats()
	if st.Expired == 0 {
		t.Fatalf("no expired leases — the killed worker was never reclaimed: %+v", st)
	}
	if finalEng.Iterations() < iters {
		t.Fatalf("session finished at %d iterations, want >= %d", finalEng.Iterations(), iters)
	}

	// The acceptance criterion: same winner as both in-process runs.
	distWinner := mostSelected(finalEng.Counts())
	if distWinner != seqWinner {
		t.Errorf("distributed winner %s != sequential winner %s (counts %v)",
			algos[distWinner].Name, algos[seqWinner].Name, finalEng.Counts())
	}
	if distWinner != poolWinner {
		t.Errorf("distributed winner %s != RunPool winner %s",
			algos[distWinner].Name, algos[poolWinner].Name)
	}
	if algo, _, val := finalEng.Best(); algo != distWinner || val > 2.0 {
		t.Errorf("best = (%s, %v), want charlie at its bank minimum 2.0", algos[algo].Name, val)
	}
}
