package core

import (
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/nominal"
	"repro/internal/param"
)

// driftAlgos are two untunable algorithms; the measure below flips their
// ranking mid-run (arm 0 is the pre-drift winner, arm 1 the post-drift
// one).
func driftAlgos() []Algorithm {
	return []Algorithm{{Name: "alpha"}, {Name: "beta"}}
}

// driftMeasure ranks arm 0 best (1.0 vs 2.0) until iters() reaches
// flipAt, then degrades it to 4.0 — the classic corpus-swap shape: the
// incumbent's cost jumps, the runner-up's does not.
func driftMeasure(iters func() int, flipAt int) Measure {
	return func(algo int, _ param.Config) float64 {
		if algo == 0 {
			if iters() >= flipAt {
				return 4.0
			}
			return 1.0
		}
		return 2.0
	}
}

// tailCounts runs tu to total iterations and returns per-arm selection
// counts over the final tail iterations.
func tailCounts(tu *Tuner, m Measure, total, tail int) []int {
	counts := make([]int, 2)
	for tu.Iterations() < total {
		algo, cfg := tu.Next()
		v := m(algo, cfg)
		tu.Observe(v)
		if tu.Iterations() > total-tail {
			counts[algo]++
		}
	}
	return counts
}

// TestDriftReElection is the headline property: after a mid-run cost
// flip the drift-aware tuner dethrones the stale incumbent and
// re-elects the new winner, while an oblivious ε-greedy — whose
// all-time-best record for arm 0 survives the flip — stays stuck.
func TestDriftReElection(t *testing.T) {
	const total, flipAt, tail = 400, 200, 100
	algos := driftAlgos()

	aware := mustNew(t, algos, nominal.NewEpsilonGreedy(0.1), nil, 3,
		WithDriftWatchdog(DefaultDriftConfig()))
	awareTail := tailCounts(aware, driftMeasure(aware.Iterations, flipAt), total, tail)
	ds := aware.DriftStats()
	if ds.Events < 1 {
		t.Fatalf("drift watchdog detected no change-point: %+v", ds)
	}
	if ds.Decays < 1 {
		t.Errorf("default policy is decay, but Decays = %d (%+v)", ds.Decays, ds)
	}
	if ds.ProbesScheduled == 0 {
		t.Errorf("reset scheduled no re-probes: %+v", ds)
	}
	if awareTail[1] <= tail*6/10 {
		t.Errorf("drift-aware tail selections %v: post-flip winner (arm 1) not re-elected", awareTail)
	}

	obliv := mustNew(t, algos, nominal.NewEpsilonGreedy(0.1), nil, 3)
	oblivTail := tailCounts(obliv, driftMeasure(obliv.Iterations, flipAt), total, tail)
	if got := obliv.DriftStats(); got.Events != 0 || got.Seq != 0 {
		t.Errorf("oblivious tuner reports drift activity: %+v", got)
	}
	if oblivTail[0] <= tail*6/10 {
		t.Errorf("oblivious tail selections %v: expected the stale incumbent to stay stuck (the control leg is broken)", oblivTail)
	}
}

// TestDriftReforkPolicy: the hard policy drops all evidence and re-runs
// the init probe round; the post-flip winner must still be elected.
func TestDriftReforkPolicy(t *testing.T) {
	const total, flipAt, tail = 400, 200, 100
	cfg := DefaultDriftConfig()
	cfg.Policy = DriftRefork
	tu := mustNew(t, driftAlgos(), nominal.NewEpsilonGreedy(0.1), nil, 5,
		WithDriftWatchdog(cfg))
	tc := tailCounts(tu, driftMeasure(tu.Iterations, flipAt), total, tail)
	ds := tu.DriftStats()
	if ds.Reforks < 1 {
		t.Fatalf("refork policy fired no reforks: %+v", ds)
	}
	if ds.Decays != 0 {
		t.Errorf("refork policy recorded decays: %+v", ds)
	}
	if tc[1] <= tail*6/10 {
		t.Errorf("refork tail selections %v: post-flip winner not re-elected", tc)
	}
}

// TestDriftProbeScheduling: a reset schedules ProbesPerArm forced
// re-probes of every arm, and Next consumes them round-robin before
// consulting the selector again.
func TestDriftProbeScheduling(t *testing.T) {
	algos := driftAlgos()
	tu := mustNew(t, algos, nominal.NewEpsilonGreedy(0.1), nil, 7,
		WithDriftWatchdog(DefaultDriftConfig()))
	m := driftMeasure(tu.Iterations, 1<<30)
	tu.Run(20, m)

	tu.mu.Lock()
	tu.t.driftReset(0, 0.25)
	tu.mu.Unlock()
	ds := tu.DriftStats()
	if ds.Seq != 1 || ds.Events != 1 {
		t.Fatalf("after one reset: %+v", ds)
	}
	if want := uint64(DefaultProbesPerArm * len(algos)); ds.ProbesScheduled != want {
		t.Fatalf("ProbesScheduled = %d, want %d", ds.ProbesScheduled, want)
	}
	if ds.PendingProbes != DefaultProbesPerArm*len(algos) {
		t.Fatalf("PendingProbes = %d, want %d", ds.PendingProbes, DefaultProbesPerArm*len(algos))
	}

	want := []int{0, 1, 0, 1}
	for i, w := range want {
		algo, cfg := tu.Next()
		if algo != w {
			t.Fatalf("probe %d leased arm %d, want %d", i, algo, w)
		}
		tu.Observe(m(algo, cfg))
	}
	if ds := tu.DriftStats(); ds.PendingProbes != 0 {
		t.Errorf("PendingProbes = %d after consuming the round, want 0", ds.PendingProbes)
	}
}

// TestDriftEngineProbeOverride: under a trial engine the reset's forced
// re-probes override the selector on the next leases.
func TestDriftEngineProbeOverride(t *testing.T) {
	eng, err := NewTuner(driftAlgos(), nominal.NewEpsilonGreedy(0.1), nil, 9,
		WithDriftWatchdog(DefaultDriftConfig()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		tr, err := eng.Lease()
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Complete(tr.ID, 1.0+float64(tr.Algo)); err != nil {
			t.Fatal(err)
		}
	}

	eng.mu.Lock()
	eng.t.driftReset(0, 0.25)
	eng.mu.Unlock()

	got := make([]int, 0, 4)
	for i := 0; i < 4; i++ {
		tr, err := eng.Lease()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, tr.Algo)
		if err := eng.Complete(tr.ID, 2.0); err != nil {
			t.Fatal(err)
		}
	}
	want := []int{0, 1, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-reset leases %v, want %v", got, want)
		}
	}
	if ds := eng.DriftStats(); ds.PendingProbes != 0 {
		t.Errorf("PendingProbes = %d after the probe round, want 0", ds.PendingProbes)
	}
}

// TestDriftStaleBarrier: a trial leased before a drift reset and
// completed after it measured the regime the reset dropped. The engine
// discards it — no iteration, no selector report, no incumbent — and
// counts it in StaleDropped, while a trial leased after the reset
// applies as usual.
func TestDriftStaleBarrier(t *testing.T) {
	eng, err := NewTuner(driftAlgos(), nominal.NewEpsilonGreedy(0.1), nil, 9,
		WithDriftWatchdog(DefaultDriftConfig()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		tr, err := eng.Lease()
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Complete(tr.ID, 1.0+float64(tr.Algo)); err != nil {
			t.Fatal(err)
		}
	}
	stale, err := eng.Lease()
	if err != nil {
		t.Fatal(err)
	}
	eng.mu.Lock()
	eng.t.driftReset(0, 0.25)
	eng.mu.Unlock()

	iters, counts := eng.Iterations(), eng.Counts()
	// 0.25 would be the best value ever seen, were it applied.
	if err := eng.Complete(stale.ID, 0.25); err != nil {
		t.Fatal(err)
	}
	if got := eng.Iterations(); got != iters {
		t.Fatalf("stale completion applied: %d iterations, want %d", got, iters)
	}
	if got := eng.Counts(); !slices.Equal(got, counts) {
		t.Fatalf("stale completion counted: %v, want %v", got, counts)
	}
	if _, _, v := eng.Best(); v == 0.25 {
		t.Fatal("stale completion became the incumbent")
	}
	if ds := eng.DriftStats(); ds.StaleDropped != 1 {
		t.Fatalf("StaleDropped = %d, want 1", ds.StaleDropped)
	}

	fresh, err := eng.Lease()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Complete(fresh.ID, 0.5); err != nil {
		t.Fatal(err)
	}
	if got := eng.Iterations(); got != iters+1 {
		t.Fatalf("post-reset completion: %d iterations, want %d", got, iters+1)
	}
	if _, _, v := eng.Best(); v != 0.5 {
		t.Fatalf("post-reset best %v, want 0.5", v)
	}
}

// TestDriftCheckpointResume kills a checkpointed run right after the
// drift reset (mid probe round) and again later, resuming each time;
// the stitched run must match an uninterrupted reference decision for
// decision — the journal's drift sentinel replays the reset exactly.
func TestDriftCheckpointResume(t *testing.T) {
	const total, flipAt, every, seed = 400, 150, 20, 11
	algos := driftAlgos()
	mk := func() nominal.Selector { return nominal.NewEpsilonGreedy(0.1) }
	wd := func() Option { return WithDriftWatchdog(DefaultDriftConfig()) }

	ref := mustNew(t, algos, mk(), nil, seed, wd())
	ref.Run(total, driftMeasure(ref.Iterations, flipAt))
	refStats := ref.DriftStats()
	if refStats.Events < 1 {
		t.Fatalf("reference run detected no drift: %+v", refStats)
	}
	refBest, _, refVal := ref.Best()

	dir := t.TempDir()
	var cur *Tuner
	m := driftMeasure(func() int { return cur.Iterations() }, flipAt)
	cur = mustNew(t, algos, mk(), nil, seed, wd(), WithCheckpoint(dir, every))
	// 160 lands inside the post-reset probe round / cooldown window; 300
	// is deep into the re-learned regime.
	for _, kill := range []int{160, 300} {
		for cur.Iterations() < kill {
			cur.Step(m)
		}
		if err := cur.CheckpointErr(); err != nil {
			t.Fatalf("checkpointing degraded before kill at %d: %v", kill, err)
		}
		cur.Next() // in-flight proposal dies with the process
		re, err := NewTuner(algos, mk(), nil, seed, wd(), WithCheckpoint(dir, every))
		if err != nil {
			t.Fatalf("resume after kill at %d: %v", kill, err)
		}
		cur = re
		if got := cur.Iterations(); got != kill {
			t.Fatalf("resume after kill at %d recovered %d iterations", kill, got)
		}
	}
	for cur.Iterations() < total {
		cur.Step(m)
	}

	if got := cur.DriftStats(); got.Seq != refStats.Seq || got.Events != refStats.Events {
		t.Errorf("resumed drift stats %+v, reference %+v", got, refStats)
	}
	b, _, v := cur.Best()
	if b != refBest || v != refVal {
		t.Errorf("resumed best (%d, %g) differs from reference (%d, %g)", b, v, refBest, refVal)
	}
	if c, rc := cur.Counts(), ref.Counts(); len(c) == len(rc) {
		for i := range c {
			if c[i] != rc[i] {
				t.Errorf("arm %d selected %d times, reference %d", i, c[i], rc[i])
			}
		}
	}
}

// TestDriftEngineResume: drift detection and sentinel replay under the
// trial engine with concurrent workers — a mid-run flip is detected, the
// checkpoint resumes with the reset intact, and the resumed engine keeps
// favouring the post-flip winner.
func TestDriftEngineResume(t *testing.T) {
	const seed, every = 13, 50
	dir := t.TempDir()
	algos := driftAlgos()
	var done atomic.Int64
	m := func(algo int, _ param.Config) float64 {
		n := done.Add(1)
		if algo == 0 {
			if n >= 150 {
				return 10.0
			}
			return 1.0
		}
		return 2.0
	}

	eng, err := NewTuner(algos, nominal.NewEpsilonGreedy(0.1), nil, seed,
		WithDriftWatchdog(DefaultDriftConfig()), WithCheckpoint(dir, every))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunPool(4, 500, m)
	if err := eng.CheckpointErr(); err != nil {
		t.Fatal(err)
	}
	ds := eng.DriftStats()
	if ds.Events < 1 {
		t.Fatalf("engine run detected no drift: %+v", ds)
	}
	iters := eng.Iterations()

	rs, err := NewTuner(algos, nominal.NewEpsilonGreedy(0.1), nil, seed,
		WithDriftWatchdog(DefaultDriftConfig()), WithCheckpoint(dir, every))
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.Iterations(); got != iters {
		t.Fatalf("resumed %d iterations, want %d", got, iters)
	}
	rds := rs.DriftStats()
	if rds.Seq != ds.Seq || rds.Events != ds.Events {
		t.Fatalf("resumed drift stats %+v, original %+v", rds, ds)
	}

	// The resumed engine must keep favouring the post-flip winner: the
	// reset (evidence decay) survived the round trip, so arm 0's stale
	// 1.0 record cannot regain the throne.
	before := rs.Counts()
	rs.RunPool(4, 200, m)
	after := rs.Counts()
	d0, d1 := after[0]-before[0], after[1]-before[1]
	if d1 <= d0 {
		t.Errorf("post-resume selections: arm0 %+d, arm1 %+d — stale incumbent re-elected", d0, d1)
	}
}

// TestDriftSentinelWithPhaseOneFlagResumes: sentinels written when a
// reset also restarted search.Restarting strategies carry "dp1":true. A
// resume still reads them and applies the selector reset and the probe
// round; the flag itself is ignored.
func TestDriftSentinelWithPhaseOneFlagResumes(t *testing.T) {
	dir := t.TempDir()
	opts := []Option{WithDriftWatchdog(DefaultDriftConfig()), WithCheckpoint(dir, 0)}
	tu := mustNew(t, driftAlgos(), nominal.NewEpsilonGreedy(0.1), nil, 7, opts...)
	tu.Run(12, driftMeasure(tu.Iterations, 1<<30))
	if err := tu.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	segs := checkpoint.Segments(dir)
	body := `{"iter":12,"algo":"","config":null,"value":0,"drift":"decay","dseq":1,"dkeep":0.25,"dprobes":2,"dp1":true}`
	f, err := os.OpenFile(checkpoint.SegPath(dir, segs[len(segs)-1]), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(f, "%08x %s\n", crc32.ChecksumIEEE([]byte(body)), body); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustNew(t, driftAlgos(), nominal.NewEpsilonGreedy(0.1), nil, 7, opts...)
	if got := re.Iterations(); got != 12 {
		t.Fatalf("resumed at %d iterations, want 12", got)
	}
	ds := re.DriftStats()
	if ds.Seq != 1 || ds.Events != 1 || ds.Decays != 1 {
		t.Fatalf("resumed drift state %+v, want the journaled decay applied once", ds)
	}
	if want := 2 * len(driftAlgos()); ds.PendingProbes != want {
		t.Fatalf("PendingProbes = %d, want %d", ds.PendingProbes, want)
	}
}
