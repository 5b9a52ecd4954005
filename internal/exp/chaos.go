package exp

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/nominal"
	"repro/internal/param"
	"repro/internal/report"
	"repro/internal/tuned"
)

// Ablation A14 — chaos soak of the distributed tuning service. The
// loopback E2E topology (one server, several workers over TCP) is run
// three times over the same replayed matcher banks: once sequentially
// as the reference, once distributed over a clean network, and once
// distributed with sustained fault injection — latency, fragmentation,
// connection resets, frame corruption, and one blackhole partition long
// enough to exhaust every client retry budget and force the workers
// into degraded mode. The run must still elect the sequential winner,
// the journal must account for every observation exactly once (none
// lost, none duplicated), the partitioned workers' locally-learned
// state must be visibly merged back (Absorbed > 0), and the wall-clock
// cost of chaos must stay within a bounded factor of the clean run.

// chaosSoakFaults is the sustained fault configuration of the A14 run.
var chaosSoakFaults = chaos.Config{
	Seed:         1,
	LatencyMax:   300 * time.Microsecond,
	FragmentProb: 0.15,
	ResetProb:    0.02,
	CorruptProb:  0.02,
}

// ChaosSoak is the A14 result.
type ChaosSoak struct {
	Iters   int
	Workers int
	// Winners of the three runs over the same banks.
	SequentialWinner string
	CleanWinner      string
	ChaosWinner      string
	// Wall-clock seconds of the two distributed runs and their ratio.
	CleanSecs   float64
	ChaosSecs   float64
	Slowdown    float64
	MaxSlowdown float64
	// Degraded-mode evidence from the chaos run.
	Partitions     int
	DegradedTrials int
	Absorbed       uint64
	// Journal audit of the chaos run: record count across all
	// segments, engine iterations, and trial-ID uniqueness.
	JournalRecords int
	Iterations     int
	JournalUnique  bool
	// Injected fault counts, for the table.
	Faults chaos.Stats
}

// Pass reports the A14 acceptance criteria: winner agreement of both
// distributed runs with the sequential reference, a forced degraded-
// mode excursion whose state was merged back, a lossless and
// duplication-free journal, and bounded slowdown.
func (c *ChaosSoak) Pass() bool {
	return c.ChaosWinner == c.SequentialWinner &&
		c.CleanWinner == c.SequentialWinner &&
		c.Partitions > 0 && c.Absorbed > 0 &&
		c.JournalUnique && c.JournalRecords == c.Iterations && c.JournalRecords > 0 &&
		c.Slowdown <= c.MaxSlowdown
}

// chaosSoakRun drives one distributed session: a server over the given
// engine and workers that lease, measure against the replayed bank, and
// report — through the chaos network when cnet is non-nil, over the
// plain loopback otherwise. When partition > 0, the network is
// partitioned for that long once a quarter of the trials completed.
func chaosSoakRun(eng *core.ConcurrentTuner, bank [][]float64, iters, workers int,
	cnet *chaos.Network, partition time.Duration) (secs float64, stats []tuned.WorkerStats, err error) {
	srv := tuned.NewServer(eng,
		tuned.WithTrialTarget(iters), tuned.WithSessionCap(16), tuned.WithGlobalCap(64))
	var ln net.Listener
	if cnet != nil {
		ln, err = cnet.Listen("tcp", "127.0.0.1:0")
	} else {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		return 0, nil, err
	}
	go srv.Serve(ln)
	defer srv.Close()

	measure := replayMeasure(bank)
	slowed := func(algo int, cfg param.Config) float64 {
		time.Sleep(300 * time.Microsecond) // give the run wall-clock extent
		return measure(algo, cfg)
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	ws := make([]*tuned.Worker, workers)
	for i := 0; i < workers; i++ {
		opts := []tuned.ClientOption{
			tuned.WithRetry(2, 2*time.Millisecond, 20*time.Millisecond),
			tuned.WithRequestTimeout(150 * time.Millisecond),
		}
		if cnet != nil {
			opts = append(opts, tuned.WithDialer(cnet.DialTimeout))
		}
		c, derr := tuned.Dial(ln.Addr().String(), opts...)
		if derr != nil {
			return 0, nil, derr
		}
		defer c.Close()
		w := &tuned.Worker{
			Client:         c,
			Measure:        slowed,
			Batch:          2 + i,
			HeartbeatEvery: 60 * time.Millisecond,
			Fallback: &tuned.Fallback{
				Selector:   func() nominal.Selector { return nominal.NewEpsilonGreedy(0.10) },
				Seed:       int64(100 + i),
				ProbeEvery: 25 * time.Millisecond,
			},
			ID: uint64(1 + i),
		}
		ws[i] = w
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = w.Run(context.Background())
		}(i)
	}
	start := time.Now()
	if cnet != nil && partition > 0 {
		go func() {
			for eng.Stats().Completed < uint64(iters/4) {
				time.Sleep(5 * time.Millisecond)
			}
			cnet.PartitionFor(partition)
		}()
	}
	wg.Wait()
	secs = time.Since(start).Seconds()
	for _, e := range errs {
		if e != nil {
			return secs, nil, e
		}
	}
	stats = make([]tuned.WorkerStats, workers)
	for i, w := range ws {
		stats[i] = w.Stats()
	}
	return secs, stats, nil
}

// RunChaosSoak executes the A14 experiment. iters <= 0 uses 500.
func RunChaosSoak(cfg Config, iters int) *ChaosSoak {
	cfg = cfg.sanitize()
	if iters <= 0 {
		iters = 500
	}
	const workers = 3
	names, bank := recordBank(cfg)
	res := &ChaosSoak{Iters: iters, Workers: workers, MaxSlowdown: 50}

	// Reference: the paper's sequential tuner over the same bank.
	seq, err := core.NewTuner(matcherAlgorithms(), nominal.NewEpsilonGreedy(0.10), nil, cfg.Seed)
	if err != nil {
		panic(err)
	}
	seq.Run(iters, replayMeasure(bank))
	res.SequentialWinner = names[mostSelected(seq.Counts())]

	// Clean distributed run.
	cleanEng, err := core.NewConcurrentTuner(matcherAlgorithms(), nominal.NewEpsilonGreedy(0.10), nil, cfg.Seed,
		core.WithLeaseTimeout(250*time.Millisecond))
	if err != nil {
		panic(err)
	}
	if res.CleanSecs, _, err = chaosSoakRun(cleanEng, bank, iters, workers, nil, 0); err != nil {
		panic(err)
	}
	res.CleanWinner = names[mostSelected(cleanEng.Counts())]

	// Chaos distributed run, journaled for the audit.
	dir, err := os.MkdirTemp("", "a14-journal-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	chaosEng, err := core.NewConcurrentTuner(matcherAlgorithms(), nominal.NewEpsilonGreedy(0.10), nil, cfg.Seed,
		core.WithLeaseTimeout(250*time.Millisecond), core.WithCheckpoint(dir, 0))
	if err != nil {
		panic(err)
	}
	cnet := chaos.New(chaosSoakFaults)
	secs, wstats, err := chaosSoakRun(chaosEng, bank, iters, workers, cnet, 1500*time.Millisecond)
	if err != nil {
		panic(err)
	}
	res.ChaosSecs = secs
	res.Slowdown = res.ChaosSecs / res.CleanSecs
	res.ChaosWinner = names[mostSelected(chaosEng.Counts())]
	res.Faults = cnet.Stats()
	for _, s := range wstats {
		res.Partitions += s.Partitions
		res.DegradedTrials += s.DegradedTrials
	}
	res.Absorbed = chaosEng.Stats().Absorbed

	// Journal audit. Wait out straggler leases (responses eaten by a
	// reset) so the ledger settles, then require every journaled record
	// to carry a unique trial ID and the record count to equal the
	// engine's iteration count: nothing lost, nothing applied twice.
	deadline := time.Now().Add(3 * time.Second)
	for chaosEng.Stats().InFlight > 0 && time.Now().Before(deadline) {
		chaosEng.ReclaimExpired()
		time.Sleep(10 * time.Millisecond)
	}
	if err := chaosEng.Checkpoint(); err != nil {
		panic(err)
	}
	res.Iterations = chaosEng.Iterations()
	seen := make(map[uint64]bool)
	res.JournalUnique = true
	for _, seg := range checkpoint.Segments(dir) {
		recs, err := checkpoint.ReadJournal(checkpoint.SegPath(dir, seg))
		if err != nil {
			panic(err)
		}
		res.JournalRecords += len(recs)
		for _, r := range recs {
			if seen[r.Trial] {
				res.JournalUnique = false
			}
			seen[r.Trial] = true
		}
	}
	return res
}

// RenderFigureA14 writes the chaos-soak summary table.
func (c *ChaosSoak) RenderFigureA14(w io.Writer) *report.Table {
	t := report.NewTable("Ablation A14: chaos soak of the distributed tuning service",
		"property", "value")
	t.Addf("iterations / workers", fmt.Sprintf("%d / %d", c.Iters, c.Workers))
	t.Addf("sequential winner", c.SequentialWinner)
	t.Addf("clean distributed winner", c.CleanWinner)
	t.Addf("chaos distributed winner", c.ChaosWinner)
	t.Addf("injected faults (resets/corruptions/fragments)",
		fmt.Sprintf("%d/%d/%d", c.Faults.Resets, c.Faults.Corruptions, c.Faults.Fragments))
	t.Addf("degraded-mode excursions / local trials", fmt.Sprintf("%d / %d", c.Partitions, c.DegradedTrials))
	t.Addf("observations merged back on reconnect", c.Absorbed)
	t.Addf("journal records / iterations / unique IDs",
		fmt.Sprintf("%d / %d / %v", c.JournalRecords, c.Iterations, c.JournalUnique))
	t.Addf("slowdown vs clean run", fmt.Sprintf("%.1fx (bound %.0fx)", c.Slowdown, c.MaxSlowdown))
	t.Addf("passes", c.Pass())
	if w != nil {
		t.Render(w)
	}
	return t
}
