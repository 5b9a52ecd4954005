package exp

import (
	"strings"
	"testing"
	"time"
)

// TestConcurrentTuningAgreesWithSequential runs A12 at test scale: every
// worker count must converge to the sequential reference winner over the
// replayed banks, and the sleep-based throughput must scale with the
// pool (the 4x acceptance bound is asserted at full scale by the figure
// run; the test uses a conservative 2x against CI scheduling noise).
// Every failure prints the result's Replay: the seed and the recorded
// bank every fidelity run replayed.
func TestConcurrentTuningAgreesWithSequential(t *testing.T) {
	res := RunConcurrentTuning(TestConfig(), 800)
	if !res.WinnersAgree {
		t.Fatalf("winners diverge: sequential %s, concurrent %v; replay: %v", res.SequentialWinner, res.Winners, res.Replay)
	}
	for i, s := range res.Stats {
		total := s.Completed + s.Failed + s.Expired
		if total != uint64(res.Iters) || s.Leased != total {
			t.Fatalf("workers=%d: stats %+v do not conserve %d trials; replay: %v", res.Workers[i], s, res.Iters, res.Replay)
		}
	}
	for i, lps := range res.LeasesPerSec {
		if lps <= 0 {
			t.Fatalf("workers=%d: leases/sec = %v; replay: %v", res.Workers[i], lps, res.Replay)
		}
	}
	if last := res.Speedup[len(res.Speedup)-1]; last < 2 {
		t.Fatalf("16-worker speedup = %.2fx, want >= 2x even under CI noise (leases/sec: %v); replay: %v",
			last, res.LeasesPerSec, res.Replay)
	}

	tbl := res.RenderFigureA12(nil)
	var sb strings.Builder
	tbl.Render(&sb)
	if !strings.Contains(sb.String(), "winners agree") {
		t.Fatalf("A12 table is missing the agreement row; replay: %v", res.Replay)
	}
}

// TestTrialEngineThroughputScales checks the throughput helper in
// isolation with a coarse sleep so the ordering is unambiguous.
func TestTrialEngineThroughputScales(t *testing.T) {
	lps := TrialEngineThroughput([]int{1, 8}, 32, 2*time.Millisecond)
	if lps[1] <= lps[0] {
		t.Fatalf("8 workers not faster than 1: %v", lps)
	}
}
