package exp

import (
	"strings"
	"testing"
)

// Acceptance: hard-kill the checkpointed tuner at 10 random iterations,
// resume each time, and the stitched run must reach the same winning
// algorithm as the uninterrupted reference, losing at most one iteration
// per crash; a corrupted newest snapshot must fall back to the previous
// generation without error. Every failure prints the result's Replay:
// the seed and the recorded bank both runs replayed.
func TestCheckpointCrashRecoversExactly(t *testing.T) {
	cfg := TestConfig()
	res, err := RunCheckpointCrash(cfg, 800, 10, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !res.WinnersAgree {
		t.Errorf("resumed winner %q differs from reference winner %q; replay: %v",
			res.ResumedWinner, res.ReferenceWinner, res.Replay)
	}
	if res.ResumedBest != res.ReferenceBest {
		t.Errorf("resumed best value %g differs from reference %g; replay: %v",
			res.ResumedBest, res.ReferenceBest, res.Replay)
	}
	if len(res.KillPoints) != 10 {
		t.Errorf("%d kill points, want 10; replay: %v", len(res.KillPoints), res.Replay)
	}
	if res.MaxLossPerCrash > 1 {
		t.Errorf("a crash lost %d iterations, bound is 1; replay: %v", res.MaxLossPerCrash, res.Replay)
	}
	if !res.FallbackOK {
		t.Errorf("corrupt-newest-snapshot fallback failed (winner %q); replay: %v", res.FallbackWinner, res.Replay)
	}
	if res.ReplayedIterations == 0 {
		t.Errorf("no journal records were replayed — the kill points never exercised the WAL; replay: %v", res.Replay)
	}

	var sb strings.Builder
	res.RenderFigureA11(&sb)
	for _, want := range []string{"crash/resume", res.ReferenceWinner, "fallback"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("A11 table missing %q; replay: %v", want, res.Replay)
		}
	}
}
