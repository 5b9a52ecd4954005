// Command atune-demo is a minimal, fast demonstration of the two-phase
// online autotuner: three synthetic "algorithms" (one untunable and fast,
// one tunable that can beat it, one plainly bad) are tuned live, printing
// the tuner's choices and progress every few iterations.
//
// Usage:
//
//	atune-demo [-strategy name] [-iters N] [-seed S] [-faults] [-guard]
//	           [-checkpoint dir] [-snap-every N] [-workers N] [-contextual]
//
// Strategy names: egreedy:5, egreedy:10, egreedy:20, gradient, optimum,
// auc, random, roundrobin, softmax:<temp>.
//
// -faults makes the plainly-bad algorithm fail three out of every four
// runs, cycling panic → NaN → hang → ok. Without -guard that crashes the
// loop on the very first visit to the bad arm — run with both flags to
// watch the fault-tolerant measurement layer (guard + quarantine +
// degradation watchdog) absorb the failures and still converge.
//
// -checkpoint makes the tuner durable: its state is snapshotted to dir
// every -snap-every iterations and journaled in between. Kill the demo at
// any point (Ctrl-C, kill -9) and run the same command again to watch the
// tuner pick up where it left off, losing at most one iteration; a
// directory that holds a checkpoint is always resumed, never overwritten:
//
//	atune-demo -checkpoint /tmp/demo-ckpt    # interrupt this...
//	atune-demo -checkpoint /tmp/demo-ckpt    # ...then warm-restart
//
// -workers N > 1 drives the same tuner from N goroutines instead of one
// Step loop: they lease trials, measure them concurrently, and complete
// them out of order (per-iteration progress lines are then suppressed —
// completions have no single order to print them in). All other flags
// compose; a -checkpoint directory resumes whichever way it was written.
//
// -contextual demonstrates feature-vector routing: the same three
// algorithms, but the right answer now depends on the request. Two
// request classes alternate — "small" inputs (feature vector {1}) where
// the tunable algorithm wins, and "large" inputs ({100}) where every
// cost but the size-oblivious streaming algorithm's scales up and
// fast-but-fixed wins. The contextual engine's split tree must discover
// that the feature separates two cost regimes and elect each class's own
// winner in its own selector replica. Self-contained: composes only with
// -iters and -seed (every replica uses a windowed ε-greedy, so -strategy
// does not apply either).
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ctxtune"
	"repro/internal/guard"
	"repro/internal/nominal"
	"repro/internal/param"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("atune-demo: ")
	var (
		strategy = flag.String("strategy", "egreedy:10", "phase-two selection strategy")
		iters    = flag.Int("iters", 120, "tuning iterations")
		seed     = flag.Int64("seed", 1, "seed")
		faults   = flag.Bool("faults", false, "make the plainly-bad algorithm fail 3 of 4 runs (panic/NaN/hang cycle)")
		guarded  = flag.Bool("guard", false, "enable the fault-tolerant measurement layer (guard + quarantine)")
		ckptDir  = flag.String("checkpoint", "", "directory for crash-safe tuner snapshots + journal, resumed when it holds one (empty = off)")
		snapEach = flag.Int("snap-every", 20, "snapshot cadence in iterations (with -checkpoint)")
		workers  = flag.Int("workers", 1, "concurrent measurement workers (>1 leases trials from that many goroutines)")
		ctxFlg   = flag.Bool("contextual", false, "demo feature-vector routing: two request classes with different winners")
	)
	flag.Parse()

	if *ctxFlg {
		// Self-contained mode: reject any explicitly set flag it ignores
		// rather than silently dropping it.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "contextual", "iters", "seed":
			default:
				log.Fatalf("-%s does not apply with -contextual (only -iters and -seed compose)", f.Name)
			}
		})
		runContextual(*iters, *seed)
		return
	}

	sel, err := nominal.NewByName(*strategy)
	if err != nil {
		log.Fatal(err)
	}

	algos := demoAlgos()
	measure := func(algo int, cfg param.Config) float64 {
		switch algo {
		case 0:
			return 10
		case 1:
			da := cfg[0] - 6.5
			db := (cfg[1] - 48) / 16
			return 4 + da*da + db*db
		default:
			return 35
		}
	}

	const faultyAlgo = 2
	if *faults {
		// The mutex matters under -guard: a hung measurement is abandoned
		// by the deadline and its goroutine would otherwise race the next
		// call on the visit counter.
		var mu sync.Mutex
		visits := 0
		inner := measure
		measure = func(algo int, cfg param.Config) float64 {
			if algo == faultyAlgo {
				mu.Lock()
				v := visits
				visits++
				mu.Unlock()
				switch v % 4 {
				case 0:
					panic("injected fault in plainly-bad")
				case 1:
					return math.NaN()
				case 2:
					time.Sleep(250 * time.Millisecond)
					return math.NaN()
				}
			}
			return inner(algo, cfg)
		}
		if !*guarded {
			fmt.Println("injecting faults WITHOUT -guard: expect a crash")
		}
	}

	var q *guard.Quarantine
	var opts []core.Option
	if *guarded {
		q = guard.NewQuarantine(sel)
		q.K = 2
		sel = q
		opts = append(opts, core.WithGuard(guard.WithTimeout(50*time.Millisecond)))
	}

	// A -checkpoint directory holding a previous run's state is resumed
	// by the constructor.
	resumed := core.HasCheckpoint(*ckptDir)
	if *ckptDir != "" {
		opts = append(opts, core.WithCheckpoint(*ckptDir, *snapEach))
	}
	tuner, err := core.NewTuner(algos, sel, nil, *seed, opts...)
	if err != nil {
		log.Fatal(err)
	}
	if resumed {
		fmt.Printf("resumed from %s at iteration %d\n", *ckptDir, tuner.Iterations())
	}

	if *workers > 1 {
		fmt.Printf("online-autotuning %d algorithms with %s across %d workers\n\n",
			len(algos), sel.Name(), *workers)
		tuner.RunPool(*workers, *iters, measure)
		s := tuner.Stats()
		fmt.Printf("leased %d trials: %d completed, %d failed, %d expired\n",
			s.Leased, s.Completed, s.Failed, s.Expired)
	} else {
		runSequential(tuner, algos, sel, measure, *iters)
	}

	if *ckptDir != "" {
		if err := tuner.CheckpointErr(); err != nil {
			fmt.Fprintln(os.Stderr, "warning: checkpointing degraded:", err)
		}
	}

	best, cfg, val := tuner.Best()
	fmt.Printf("\nbest algorithm : %s\n", algos[best].Name)
	if algos[best].Space != nil {
		fmt.Printf("best config    : %s\n", algos[best].Space.Format(cfg))
	}
	fmt.Printf("best cost      : %.3f\n", val)
	fmt.Printf("selection count: ")
	for i, c := range tuner.Counts() {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Printf("%s=%d", algos[i].Name, c)
	}
	fmt.Println()
	if *guarded {
		fs := tuner.FailureStats()
		fmt.Printf("failures       : %d total (%d panics, %d timeouts, %d invalid)\n",
			fs.Total, fs.Panics, fs.Timeouts, fs.Invalids)
		fmt.Printf("quarantine     : %s tripped %d times; degraded=%v, pinned iters=%d\n",
			algos[faultyAlgo].Name, q.Trips(faultyAlgo), tuner.Degraded(), fs.PinnedIterations)
	}
	if best != 1 {
		fmt.Fprintln(os.Stderr, "note: the tunable algorithm was not identified as best; try more iterations")
		os.Exit(1)
	}
}

// demoAlgos is the demo's synthetic roster, shared by the global and
// contextual modes.
func demoAlgos() []core.Algorithm {
	return []core.Algorithm{
		{Name: "fast-but-fixed"},
		{
			Name: "tunable-winner",
			Space: param.NewSpace(
				param.NewInterval("alpha", 0, 10),
				param.NewRatioInt("block", 1, 64),
			),
			// A hand-crafted starting configuration (as in the paper's
			// raytracing case study): competitive from the start, and the
			// Nelder-Mead phase tunes it to the clear winner.
			Init: param.Config{5, 32},
		},
		{Name: "plainly-bad"},
	}
}

// runContextual is the -contextual demo: two request classes alternate
// through one contextual engine, and each must converge on its own
// winner — the tunable algorithm on small inputs, the size-oblivious
// streaming one on large.
func runContextual(iters int, seed int64) {
	algos := demoAlgos()
	classes := []struct {
		name  string
		feats ctxtune.Features
	}{
		{"small", ctxtune.Features{1}},
		{"large", ctxtune.Features{100}},
	}
	winner := []int{1, 0}
	measure := func(class, algo int, cfg param.Config) float64 {
		switch algo {
		case 0:
			// Streaming and size-oblivious: barely cares about the class.
			return 10 + 2*float64(class)
		case 1:
			da := cfg[0] - 6.5
			db := (cfg[1] - 48) / 16
			v := 4 + da*da + db*db
			if class == 1 {
				v *= 8
			}
			return v
		default:
			return 35 * float64(1+7*class)
		}
	}
	eng, err := ctxtune.New(ctxtune.Config{
		Algos: algos,
		// Windowed min: each replica is warm-started from the global
		// fold, and the imported evidence — the other class's landscape —
		// must be able to age out.
		Selector: func() nominal.Selector {
			return &nominal.EpsilonGreedy{Eps: 0.10, RecencyWindow: 25}
		},
		Seed:        seed,
		Partitioner: ctxtune.NewTree(1, 24, 1.5),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	fmt.Printf("contextual-autotuning %d algorithms across %d request classes\n\n",
		len(algos), len(classes))
	tallies := make([][]int, len(classes))
	for c := range tallies {
		tallies[c] = make([]int, len(algos))
	}
	tail := iters / 2
	for i := 0; i < iters; i++ {
		class := i % len(classes)
		trials, err := eng.LeaseNFor(classes[class].feats, 1)
		if err != nil {
			log.Fatal(err)
		}
		tr := trials[0]
		v := measure(class, tr.Algo, tr.Config)
		if e := eng.CompleteN([]core.TrialResult{{ID: tr.ID, Value: v}})[0]; e != nil {
			log.Fatal(e)
		}
		if i >= tail {
			tallies[class][tr.Algo]++
		}
		if i < 10 || i%10 == 0 {
			fmt.Printf("iter %3d  %-5s ran %-15s cost %6.2f\n",
				i, classes[class].name, algos[tr.Algo].Name, v)
		}
	}

	fmt.Printf("\ncontexts discovered: %d\n", eng.ContextCount())
	ok := eng.ContextCount() >= 2
	for c, cl := range classes {
		best, bestN := 0, -1
		for a, n := range tallies[c] {
			if n > bestN {
				best, bestN = a, n
			}
		}
		fmt.Printf("%-5s class pick  : %s (%d of last %d)\n",
			cl.name, algos[best].Name, bestN, (iters-tail+1)/len(classes))
		if best != winner[c] {
			ok = false
		}
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "note: contextual routing did not separate the classes; try more iterations")
		os.Exit(1)
	}
}

// runSequential is the single-caller tuning loop with per-iteration
// progress lines.
func runSequential(tuner *core.Tuner, algos []core.Algorithm, sel nominal.Selector, measure core.Measure, iters int) {
	fmt.Printf("online-autotuning %d algorithms with %s\n\n", len(algos), sel.Name())
	for i := 0; i < iters; i++ {
		rec := tuner.Step(measure)
		if i < 10 || i%10 == 0 {
			status := ""
			if rec.Failed {
				status = "  [failed: penalized]"
			}
			fmt.Printf("iter %3d  ran %-15s cost %6.2f%s\n",
				rec.Iteration, algos[rec.Algo].Name, rec.Value, status)
		}
	}
}
