package exp

import "testing"

// TestChaosDriftRecovery runs A15 at test scale: a mid-run corpus swap
// must be detected and survived — the drift-aware tuner re-elects the
// post-swap winner with less regret than the oblivious control, both
// sequentially and across a heterogeneous loopback fleet whose 4×-slowed
// worker is bias-calibrated. A failure prints the result, whose Replay
// holds the seed and both recorded banks.
func TestChaosDriftRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("drift recovery soak in -short mode")
	}
	res := RunDriftResilience(TestConfig(), 400)
	if !res.Pass() {
		t.Fatalf("A15 failed: %+v", res)
	}
	if res.SlowFactor < 2.5 || res.SlowFactor > 6 {
		t.Errorf("slow worker's calibrated factor = %g, want ≈ 4; replay: %v", res.SlowFactor, res.Replay)
	}
}
