package exp

import "testing"

// TestContextualTuning runs A16 at test scale: mixed bible+DNA traffic
// where the two classes have different winners — the contextual engine
// must split on the alphabet-size feature, elect each class's own
// winner, and beat the global compromise on tail-window regret. A
// failure prints the result, whose Replay holds the seed and both
// recorded banks.
func TestContextualTuning(t *testing.T) {
	if testing.Short() {
		t.Skip("contextual tuning ablation in -short mode")
	}
	// 800 iterations, not fewer: the banks are recorded from real matcher
	// timings, and under parallel-package test load a short tail window
	// lets measurement noise close the contextual-vs-global regret gap.
	res := RunContextualTuning(TestConfig(), 800)
	if !res.Pass() {
		t.Fatalf("A16 failed: %+v", res)
	}
	if res.CtxBibleShare < 0.5 || res.CtxDNAShare < 0.5 {
		t.Errorf("weak per-class convergence: bible %.2f dna %.2f; replay: %v", res.CtxBibleShare, res.CtxDNAShare, res.Replay)
	}
}
