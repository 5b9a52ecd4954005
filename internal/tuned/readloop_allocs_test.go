//go:build !race

// The race detector's instrumentation changes allocation counts, so the
// allocation gate runs in normal builds only.

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

func TestLockstepRoundTripAllocs(t *testing.T) {
	_, addr := startServer(t, nil)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	roundTrip := func() {
		lb, err := c.LeaseN(1)
		if err != nil || len(lb.Trials) != 1 {
			t.Fatalf("LeaseN: %d trials, %v", len(lb.Trials), err)
		}
		tr := lb.Trials[0]
		res := []core.TrialResult{{ID: tr.ID, Value: testMeasure(tr.Algo, tr.Config)}}
		if _, _, err := c.CompleteN(lb.Epoch, res); err != nil {
			t.Fatalf("CompleteN: %v", err)
		}
	}
	roundTrip() // dial, handshake and first-use growth happen here
	allocs := testing.AllocsPerRun(200, roundTrip)
	t.Logf("%.2f allocations per lockstep round trip", allocs)
	if allocs > lockstepRoundTripAllocs {
		t.Fatalf("%.2f allocations per lockstep round trip, want at most %d", allocs, lockstepRoundTripAllocs)
	}
}
