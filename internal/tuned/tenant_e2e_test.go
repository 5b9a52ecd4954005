package tuned

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nominal"
	"repro/internal/tenant"
)

// The multi-tenant end-to-end scenario: four tenants share one server
// over real TCP, each driven by four workers against its own replayed
// sample bank with a distinct winning arm. The acceptance criteria:
//
//   - every tenant converges to the same winner as an isolated
//     single-tenant server run over the same bank (tenancy adds no
//     cross-talk);
//   - the server process is killed mid-run and a fresh registry over
//     the same root resumes every tenant from its own journal, behind
//     the workers' backs;
//   - a protocol-1 client with no tenant field still tunes against the
//     "default" tenant of the restarted server.

// rotateBank reassigns bank rows so the winning samples (row 2 of the
// e2e bank) land on arm (2+k) % len(bank) — each tenant gets the same
// cost distribution but a different correct answer, so any cross-tenant
// state leak shows up as a wrong winner.
func rotateBank(bank [][]float64, k int) [][]float64 {
	n := len(bank)
	out := make([][]float64, n)
	for i := range out {
		out[i] = bank[((i-k)%n+n)%n]
	}
	return out
}

func TestTenantLoopbackE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("full multi-tenant distributed session in -short mode")
	}
	const (
		iters            = 600
		workersPerTenant = 4
		seed             = 7
		leaseTTL         = 250 * time.Millisecond
	)
	algos, baseBank := e2eBank()
	tenants := []string{"default", "tenant-b", "tenant-c", "tenant-d"}
	banks := make([][][]float64, len(tenants))
	for k := range tenants {
		banks[k] = rotateBank(baseBank, k)
	}
	roster := func(string) ([]core.Algorithm, error) { return algos, nil }
	clientOpts := []ClientOption{WithRetry(40, 10*time.Millisecond, 200*time.Millisecond)}

	// runWorkers drives one tenant with a worker fleet until the server
	// reports Done, collecting worker errors.
	runWorkers := func(wg *sync.WaitGroup, errs chan<- error, addr, tenantName string, measure core.Measure) {
		for i := 0; i < workersPerTenant; i++ {
			batch := 1 + i%4
			wg.Add(1)
			go func() {
				defer wg.Done()
				opts := clientOpts
				if tenantName != "" {
					opts = append(append([]ClientOption(nil), opts...), WithTenant(tenantName))
				}
				c, err := Dial(addr, opts...)
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
	}

	// References: four isolated single-tenant servers, one per bank.
	// Identical engine parameters, identical worker fleet shape.
	refWinner := make([]int, len(tenants))
	for k := range tenants {
		eng, err := core.NewTuner(algos, nominal.NewEpsilonGreedy(0.10), nil, seed,
			core.WithLeaseTimeout(leaseTTL))
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(eng, WithTrialTarget(iters))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		var wg sync.WaitGroup
		errs := make(chan error, workersPerTenant)
		runWorkers(&wg, errs, ln.Addr().String(), "", replayBank(banks[k], 0))
		wg.Wait()
		srv.Close()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		refWinner[k] = mostSelected(eng.Counts())
		if want := (2 + k) % len(algos); refWinner[k] != want {
			t.Fatalf("isolated reference %d: winner %s, the bank says %s",
				k, algos[refWinner[k]].Name, algos[want].Name)
		}
	}

	// The shared multi-tenant server, persistent so the restart can
	// resume every tenant from its own journal.
	root := t.TempDir()
	newRegistry := func() *tenant.Registry {
		reg, err := tenant.NewRegistry(tenant.Config{Root: root, Roster: roster})
		if err != nil {
			t.Fatal(err)
		}
		return reg
	}
	reg := newRegistry()
	for _, name := range tenants {
		spec := tenant.Spec{Name: name, Workload: "e2e",
			Engine: core.EngineSpec{Seed: seed, SnapshotEvery: 200, LeaseTimeoutMS: leaseTTL.Milliseconds()}}
		if err := reg.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewTenantServer(reg, WithTrialTarget(iters))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go srv.Serve(ln)

	var wg sync.WaitGroup
	errs := make(chan error, len(tenants)*workersPerTenant+4)
	for k, name := range tenants {
		runWorkers(&wg, errs, addr, name, replayBank(banks[k], time.Millisecond))
	}

	// The chaos controller: once a third of the total work is journaled,
	// kill the server and resume every tenant on the same address from a
	// brand-new registry over the same root.
	var (
		reg2      *tenant.Registry
		srv2      *Server
		restarted = make(chan struct{})
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(restarted)
		probe, err := Dial(addr, clientOpts...)
		if err != nil {
			errs <- err
			return
		}
		for {
			resp, err := probe.Tenants()
			if err == nil && resp.Iterations >= len(tenants)*iters/3 {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		probe.Close()
		srv.Close()

		// What each tenant had completed when the process died; the
		// journal is fsynced per report, so the resumed engine may lose
		// at most the write that was in flight.
		atKill := make(map[string]int)
		for _, name := range tenants {
			eng, _, release, err := reg.Acquire(name)
			if err != nil {
				errs <- err
				return
			}
			atKill[name] = eng.Iterations()
			release()
		}

		reg2 = newRegistry()
		for _, name := range tenants {
			eng, _, release, err := reg2.Acquire(name)
			if err != nil {
				errs <- err
				return
			}
			if got := eng.Iterations(); got < atKill[name]-1 {
				t.Errorf("tenant %s resumed at iteration %d, journal should carry at least %d",
					name, got, atKill[name]-1)
			}
			release()
		}
		srv2 = NewTenantServer(reg2, WithTrialTarget(iters))
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			errs <- err
			return
		}
		go srv2.Serve(ln2)
	}()

	<-restarted
	if srv2 == nil {
		wg.Wait()
		t.Fatal("server was never restarted")
	}
	defer srv2.Close()

	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Per-tenant acceptance: full iteration count, winner parity with
	// the isolated reference, and mutually distinct winners.
	for k, name := range tenants {
		eng, _, release, err := reg2.Acquire(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := eng.Iterations(); got < iters {
			t.Errorf("tenant %s finished at %d iterations, want >= %d", name, got, iters)
		}
		winner := mostSelected(eng.Counts())
		release()
		if winner != refWinner[k] {
			t.Errorf("tenant %s winner = %s, isolated reference says %s",
				name, algos[winner].Name, algos[refWinner[k]].Name)
		}
	}
}
