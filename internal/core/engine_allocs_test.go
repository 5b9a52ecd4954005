//go:build !race

package core

import (
	"testing"

	"repro/internal/nominal"
)

// batchRoundTripAllocs bounds the allocations of one LeaseN(16) +
// CompleteN(16) on a history-off engine over untuned arms: the returned
// []Trial and []error, which the caller owns, and nothing else. A lease
// allocated per trial, a clock read that escapes, or a publish that
// copies the counts would each push it over.
const batchRoundTripAllocs = 2

func TestEngineBatchRoundTripAllocs(t *testing.T) {
	algos := []Algorithm{{Name: "a"}, {Name: "b"}, {Name: "c"}}
	eng, err := NewTuner(algos, nominal.NewEpsilonGreedy(0.1), nil, 1, WithoutHistory())
	if err != nil {
		t.Fatal(err)
	}
	res := make([]TrialResult, 16)
	roundTrip := func() {
		trials, err := eng.LeaseN(16)
		if err != nil || len(trials) != 16 {
			t.Fatalf("LeaseN: %d trials, %v", len(trials), err)
		}
		for i, tr := range trials {
			res[i] = TrialResult{ID: tr.ID, Value: float64(1 + tr.Algo)}
		}
		for _, err := range eng.CompleteN(res) {
			if err != nil {
				t.Fatalf("CompleteN: %v", err)
			}
		}
	}
	roundTrip() // first use: the lease map and the best snapshot
	allocs := testing.AllocsPerRun(200, roundTrip)
	t.Logf("%.2f allocations per engine LeaseN(16) + CompleteN(16)", allocs)
	if allocs > batchRoundTripAllocs {
		t.Fatalf("%.2f allocations per engine batch round trip, want at most %d", allocs, batchRoundTripAllocs)
	}
}
