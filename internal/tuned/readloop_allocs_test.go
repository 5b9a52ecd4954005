//go:build !race

// The race detector's instrumentation changes allocation counts, so the
// allocation gates run in normal builds only.

package tuned

import (
	"testing"

	"repro/internal/core"
)

// lockstepRoundTripAllocs bounds the heap allocations of one lockstep
// LeaseN(1) + CompleteN round trip, client and server together. A
// per-request goroutine on the server, or a decode target or reply
// allocated per request instead of reused by the session, pushes the
// count over it.
const lockstepRoundTripAllocs = 15

// pipelinedBatchRoundTripAllocs bounds the heap allocations of one
// pipelined LeaseN(16) + 16-result CompleteN round trip, client and
// server together: about four per trial. One extra allocation per
// trial anywhere on the path adds 16 and trips it.
const pipelinedBatchRoundTripAllocs = 64

// roundTripAllocs returns the average heap allocations of one
// LeaseN(n) + CompleteN round trip on c, measured after a first round
// trip that absorbs dialing, the handshake and first-use growth.
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
	roundTrip()
	return testing.AllocsPerRun(200, roundTrip)
}

func TestLockstepRoundTripAllocs(t *testing.T) {
	_, addr := startServer(t, nil)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	allocs := roundTripAllocs(t, c, 1)
	t.Logf("%.2f allocations per lockstep round trip", allocs)
	if allocs > lockstepRoundTripAllocs {
		t.Fatalf("%.2f allocations per lockstep round trip, want at most %d", allocs, lockstepRoundTripAllocs)
	}
}

func TestPipelinedBatchRoundTripAllocs(t *testing.T) {
	_, addr := startServer(t, []core.Option{core.WithMaxInFlight(64)})
	c, err := Dial(addr, WithPipeline(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	allocs := roundTripAllocs(t, c, 16)
	t.Logf("%.2f allocations per pipelined batch-16 round trip", allocs)
	if allocs > pipelinedBatchRoundTripAllocs {
		t.Fatalf("%.2f allocations per pipelined batch-16 round trip, want at most %d", allocs, pipelinedBatchRoundTripAllocs)
	}
}
