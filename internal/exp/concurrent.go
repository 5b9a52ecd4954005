package exp

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/nominal"
	"repro/internal/param"
	"repro/internal/report"
)

// Ablation A12 — concurrent trial engine. The paper's tuning loop is
// strictly sequential: one proposal, one measurement, one report. The
// lease-based engine (core.Tuner's Lease/Complete) relaxes that to many trials
// in flight, which raises two questions this experiment answers:
//
//  1. Fidelity — does the tuner still find the same winner when 4 or 16
//     workers complete trials out of order? As in A10/A11, every run
//     replays the same pre-recorded per-matcher sample banks, so the
//     winners can only differ through the concurrency itself
//     (speculative proposals, in-flight-aware selection, interleaved
//     completions), not through measurement noise.
//  2. Throughput — do concurrent leases actually buy wall-clock speed
//     when the measured operation has real latency? A sleep-based
//     synthetic workload isolates the engine overhead: with a fixed
//     per-trial cost, leases/sec must scale with the worker count until
//     the engine's lock becomes the bottleneck.

// concurrentWorkerCounts are the pool sizes of the A12 runs.
var concurrentWorkerCounts = []int{1, 4, 16}

// ConcurrentTuning is the A12 result.
type ConcurrentTuning struct {
	Labels  []string
	Iters   int
	Workers []int
	// SequentialWinner is the most-selected arm of a single-caller core.Tuner run
	// over the same banks with the same seed; Winners are the
	// most-selected arms of the engine runs, indexed like Workers.
	SequentialWinner string
	Winners          []string
	WinnersAgree     bool
	// Stats are the engine counters of each run (leased = completed when
	// every worker drains its leases).
	Stats []core.EngineStats
	// LeasesPerSec is the sleep-based throughput of each worker count and
	// Speedup its ratio to the single-worker baseline.
	LeasesPerSec []float64
	Speedup      []float64
	// SleepPerTrial and ThroughputIters scale the throughput runs.
	SleepPerTrial   time.Duration
	ThroughputIters int
	// Replay is the seed and the recorded bank the fidelity runs replay.
	Replay Replay
}

// Pass reports the acceptance criterion: every worker count agrees with
// the sequential winner, and 16 workers sustain at least 4x the
// single-worker lease throughput.
func (c *ConcurrentTuning) Pass() bool {
	if !c.WinnersAgree {
		return false
	}
	return c.Speedup[len(c.Speedup)-1] >= 4
}

// mostSelected returns the index of the largest count, the behavioural
// winner of a run: under replayed banks near-tied arms expose identical
// samples, so the arm the selector commits to is the decisive outcome.
func mostSelected(counts []int) int {
	best := 0
	for i, n := range counts {
		if n > counts[best] {
			best = i
		}
	}
	return best
}

// RunConcurrentTuning executes the A12 experiment: a sequential
// reference run over the eight matchers' replayed sample banks, then one
// engine run per worker count with the same seed, then the sleep-based
// throughput sweep. iters <= 0 uses 2000, the acceptance scale.
func RunConcurrentTuning(cfg Config, iters int) *ConcurrentTuning {
	cfg = cfg.sanitize()
	if iters <= 0 {
		iters = 2000
	}
	names, bank := recordBank(cfg)

	res := &ConcurrentTuning{
		Labels:          names,
		Iters:           iters,
		Workers:         concurrentWorkerCounts,
		SleepPerTrial:   2 * time.Millisecond,
		ThroughputIters: 96,
		Replay:          Replay{Seed: cfg.Seed, Names: names, Banks: []NamedBank{{"bible", bank}}},
	}

	seq, err := core.NewTuner(matcherAlgorithms(), nominal.NewEpsilonGreedy(0.10), nil, cfg.Seed)
	if err != nil {
		panic(err)
	}
	seq.Run(iters, replayMeasure(bank))
	res.SequentialWinner = names[mostSelected(seq.Counts())]

	res.WinnersAgree = true
	for _, w := range res.Workers {
		ct, err := core.NewTuner(matcherAlgorithms(), nominal.NewEpsilonGreedy(0.10), nil, cfg.Seed,
			core.WithMaxInFlight(2*w))
		if err != nil {
			panic(err)
		}
		ct.RunPool(w, iters, replayMeasure(bank))
		winner := names[mostSelected(ct.Counts())]
		res.Winners = append(res.Winners, winner)
		res.Stats = append(res.Stats, ct.Stats())
		if winner != res.SequentialWinner {
			res.WinnersAgree = false
		}
	}

	res.LeasesPerSec = TrialEngineThroughput(res.Workers, res.ThroughputIters, res.SleepPerTrial)
	for _, lps := range res.LeasesPerSec {
		res.Speedup = append(res.Speedup, lps/res.LeasesPerSec[0])
	}
	return res
}

// TrialEngineThroughput measures leases/sec of the trial engine for each
// worker count over a synthetic workload whose only cost is a fixed
// sleep per trial — the shape of a tuned operation with real latency and
// negligible CPU, where concurrency pays off most directly. The same
// total number of trials is completed at every worker count.
func TrialEngineThroughput(workers []int, total int, sleep time.Duration) []float64 {
	algos := []core.Algorithm{
		{Name: "a"},
		{Name: "b", Space: param.NewSpace(param.NewInterval("x", 0, 1))},
	}
	m := func(algo int, cfg param.Config) float64 {
		time.Sleep(sleep)
		if algo == 0 {
			return 2
		}
		return 1 + cfg[0]
	}
	out := make([]float64, len(workers))
	for i, w := range workers {
		ct, err := core.NewTuner(algos, nominal.NewEpsilonGreedy(0.10), nil, 1,
			core.WithMaxInFlight(2*w))
		if err != nil {
			panic(err)
		}
		start := time.Now()
		ct.RunPool(w, total, m)
		out[i] = float64(total) / time.Since(start).Seconds()
	}
	return out
}

// RenderFigureA12 writes the concurrent-engine summary table.
func (c *ConcurrentTuning) RenderFigureA12(w io.Writer) *report.Table {
	t := report.NewTable("Ablation A12: lease-based concurrent tuning on the string matching case study",
		"property", "value")
	t.Addf("iterations per run", c.Iters)
	t.Addf("sequential winner", c.SequentialWinner)
	for i, n := range c.Workers {
		t.Addf(fmt.Sprintf("winner @ %d workers", n), c.Winners[i])
	}
	t.Addf("winners agree", c.WinnersAgree)
	for i, n := range c.Workers {
		s := c.Stats[i]
		t.Addf(fmt.Sprintf("trials @ %d workers (leased/completed/failed/expired)", n),
			fmt.Sprintf("%d/%d/%d/%d", s.Leased, s.Completed, s.Failed, s.Expired))
	}
	t.Addf("throughput trials x sleep", fmt.Sprintf("%d x %s", c.ThroughputIters, c.SleepPerTrial))
	for i, n := range c.Workers {
		t.Addf(fmt.Sprintf("leases/sec @ %d workers", n),
			fmt.Sprintf("%.0f (%.1fx)", c.LeasesPerSec[i], c.Speedup[i]))
	}
	t.Addf("passes (winners agree, 16-worker speedup >= 4x)", c.Pass())
	if w != nil {
		t.Render(w)
	}
	return t
}
