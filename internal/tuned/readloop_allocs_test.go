//go:build !race

// The race detector's instrumentation changes allocation counts, so the
// allocation gates run in normal builds only.

package tuned

import (
	"testing"

	"repro/internal/core"
	"repro/internal/tenant"
)

// lockstepRoundTripAllocs bounds the heap allocations of one lockstep
// LeaseN(1) + CompleteN round trip, client and server together, in the
// steady state where the LeaseN hands out the trial the previous
// CompleteN leased ahead. It reads 4 (an average of 4.3), all of them
// slices a caller owns: the held Trials and the applied/dropped array
// the client copies out of the fused ack, the engine's []Trial and
// []error; the fraction is the config clones of the trials that draw the
// tunable arm. A decode target, request struct or reply allocated per
// request instead of reused, a copy of a held batch, or a lease
// allocated per trial in the engine, trips it.
const lockstepRoundTripAllocs = 4

// pipelinedBatchRoundTripAllocs bounds the heap allocations of one
// pipelined LeaseN(16) + 16-result CompleteN round trip, client and
// server together, in the same steady state. It reads 9 (an average of
// 9.5): the four caller-owned slices of the lockstep trip, the client's
// config arena, and the engine's per-trial config clones and search
// steps on the tunable arm. One extra allocation per trial anywhere on
// the path adds 16 and trips it.
const pipelinedBatchRoundTripAllocs = 9

// Readings are the floor of an average over allocRuns round trips,
// taken after allocWarmup round trips. The trials' allocations vary
// with the arm each one draws (only the tunable arm's carry configs),
// so a window of 200 read a floor of 8 or 9 for one configuration
// depending on what ran earlier in the process; warmed up and averaged
// over this many, each gate reads the same in a run of every Allocs test
// and in a run of it alone.
const (
	allocWarmup = 100
	allocRuns   = 2000
)

// roundTripAllocs returns the average heap allocations of one
// LeaseN(n) + CompleteN round trip on c in the steady state: after the
// first LeaseN every lease is the batch the previous CompleteN leased
// ahead, so a round trip is one request, the fused completion. The
// warm-up absorbs dialing, the handshake and first-use growth of pools,
// maps and decode buffers.
func roundTripAllocs(t *testing.T, c *Client, n int) float64 {
	t.Helper()
	res := make([]core.TrialResult, n)
	roundTrip := func() {
		lb, err := c.LeaseN(n)
		if err != nil || len(lb.Trials) != n {
			t.Fatalf("LeaseN: %d trials, %v", len(lb.Trials), err)
		}
		for i, tr := range lb.Trials {
			res[i] = core.TrialResult{ID: tr.ID, Value: testMeasure(tr.Algo, tr.Config)}
		}
		if _, _, err := c.CompleteN(lb.Epoch, res); err != nil {
			t.Fatalf("CompleteN: %v", err)
		}
	}
	for i := 0; i < allocWarmup; i++ {
		roundTrip()
	}
	c.hmu.Lock()
	held := len(c.held)
	c.hmu.Unlock()
	if held != 1 {
		t.Fatalf("client holds %d batches after the warm-up, want the one its last CompleteN leased ahead", held)
	}
	return testing.AllocsPerRun(allocRuns, roundTrip)
}

// checkRoundTripAllocs dials addr and fails the test when one LeaseN(n)
// + CompleteN round trip costs more than bound allocations.
func checkRoundTripAllocs(t *testing.T, addr string, n, bound int, what string, opts ...ClientOption) {
	t.Helper()
	c, err := Dial(addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	allocs := roundTripAllocs(t, c, n)
	t.Logf("%.2f allocations per %s round trip", allocs, what)
	if allocs > float64(bound) {
		t.Fatalf("%.2f allocations per %s round trip, want at most %d", allocs, what, bound)
	}
}

// specTenantServer serves a memory-only registry whose "default" tenant
// the registry builds from a spec, as atune-serve -tenants does, so the
// tenant variants of the gates cover a spec-built engine behind Register
// and Acquire.
func specTenantServer(t *testing.T) string {
	t.Helper()
	reg, err := tenant.NewRegistry(tenant.Config{
		Roster: func(string) ([]core.Algorithm, error) { return testAlgos(), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := tenant.Spec{Name: tenant.DefaultName, Workload: "test", Engine: core.EngineSpec{Seed: 1, MaxInFlight: 64}}
	if err := reg.Register(spec); err != nil {
		t.Fatal(err)
	}
	_, addr := startTenantServer(t, reg)
	return addr
}

func TestLockstepRoundTripAllocs(t *testing.T) {
	_, _, addr := startServer(t, nil)
	checkRoundTripAllocs(t, addr, 1, lockstepRoundTripAllocs, "lockstep")
}

func TestPipelinedBatchRoundTripAllocs(t *testing.T) {
	_, _, addr := startServer(t, []core.Option{core.WithMaxInFlight(64)})
	checkRoundTripAllocs(t, addr, 16, pipelinedBatchRoundTripAllocs, "pipelined batch-16", WithPipeline(0))
}

func TestTenantLockstepRoundTripAllocs(t *testing.T) {
	checkRoundTripAllocs(t, specTenantServer(t), 1, lockstepRoundTripAllocs, "tenant lockstep")
}

func TestTenantPipelinedBatchRoundTripAllocs(t *testing.T) {
	checkRoundTripAllocs(t, specTenantServer(t), 16, pipelinedBatchRoundTripAllocs, "tenant pipelined batch-16", WithPipeline(0))
}

// contextualLockstepRoundTripAllocs bounds one feature-bearing lockstep
// LeaseN(1) + CompleteN round trip through a ctxtune.Engine behind
// NewServer, after its partitioner has split: the fused completion
// reaches the replica, the partitioner and the global fold, and its
// lease routes to a context replica. It reads 5: the client's two, the
// replica's []Trial and []error, and the contextual engine's []error.
const contextualLockstepRoundTripAllocs = 5

func TestContextualLockstepRoundTripAllocs(t *testing.T) {
	eng, addr := startContextualServer(t)
	for _, f := range [][]float64{wireCheap, wireDear} {
		c, err := Dial(addr, WithFeatures(f))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			lb, err := c.LeaseN(1)
			if err != nil || len(lb.Trials) != 1 {
				t.Fatalf("LeaseN: %d trials, %v", len(lb.Trials), err)
			}
			tr := lb.Trials[0]
			if _, _, err := c.CompleteN(lb.Epoch, []core.TrialResult{{ID: tr.ID, Value: wireClassCost(f, tr.Algo)}}); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
	}
	if n := eng.ContextCount(); n < 2 {
		t.Fatalf("%d contexts after warm-up, want a split into 2", n)
	}
	checkRoundTripAllocs(t, addr, 1, contextualLockstepRoundTripAllocs, "contextual lockstep", WithFeatures(wireCheap))
}
