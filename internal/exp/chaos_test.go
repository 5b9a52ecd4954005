package exp

import "testing"

// TestChaosSoak runs A14 at test scale: the chaos run must elect the
// sequential winner, force degraded mode, merge the local state back,
// and keep a lossless duplication-free journal. A failure prints the
// result, whose Replay holds the seed and the recorded bank.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak in -short mode")
	}
	res := RunChaosSoak(TestConfig(), 400)
	if !res.Pass() {
		t.Fatalf("A14 failed: %+v", res)
	}
	if res.Faults.Resets+res.Faults.Corruptions == 0 {
		t.Fatalf("soak injected no resets or corruptions: %+v; replay: %v", res.Faults, res.Replay)
	}
}
