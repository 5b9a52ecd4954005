package exp

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/guard"
	"repro/internal/nominal"
	"repro/internal/param"
	"repro/internal/report"
	"repro/internal/strmatch"
)

// Ablation A10 — fault injection. The paper's §II-A requires that the
// tuned operation always return a valid measurement; this experiment
// breaks that requirement on purpose: one arm of the string matching case
// study is made to panic, hang, or emit NaN on a fraction of its runs,
// and the guarded tuner (core.WithGuard + guard.Quarantine + the
// degradation watchdog) must survive the full loop, quarantine the
// faulty arm, and still converge to the same winner as a clean run with
// the same seed — while the unguarded loop simply crashes on the first
// injected panic (demonstrated in the test suite, where the panic is
// recovered).
//
// To make the winner comparison exact, the experiment first records a
// bank of real wall-clock samples per matcher and then replays the banks
// in both tuning loops: the k-th run of an algorithm costs the same in
// the clean and the injected run, so the two winners can only differ
// through the faults themselves — which is precisely the question A10
// asks. (Comparing two live-measured runs instead would mostly compare
// measurement noise between near-tied matchers.)

// FaultRates are the per-measurement injection probabilities applied to
// the faulty arm. Their sum must be ≤ 1.
type FaultRates struct {
	Panic, Timeout, NaN float64
}

// Total returns the combined injection probability.
func (f FaultRates) Total() float64 { return f.Panic + f.Timeout + f.NaN }

// DefaultFaultRates injects ~20% combined failures, evenly split across
// the three kinds — the scenario of the acceptance test.
func DefaultFaultRates() FaultRates {
	return FaultRates{Panic: 0.0667, Timeout: 0.0667, NaN: 0.0667}
}

// FaultInjection is the A10 result.
type FaultInjection struct {
	Labels    []string
	FaultyArm int
	Rates     FaultRates
	Iters     int
	// CleanWinner and GuardedWinner are the Best() algorithms of the 0%
	// and injected runs under the same seed.
	CleanWinner, GuardedWinner string
	WinnersAgree               bool
	// Failures are the guarded tuner's failure counters; Trips is the
	// number of times the faulty arm's circuit opened; FaultySelections
	// its selection count over Iters iterations.
	Failures         core.FailureStats
	Trips            int
	FaultySelections int
	// Replay is the seed and the recorded bank.
	Replay Replay
}

// InjectFaults wraps a measurement so the given arm fails with the given
// rates: panic, timeout (sleeping past the guard's deadline), or NaN.
// The injection draws from its own deterministic stream, independent of
// the tuner's, behind a mutex: a guarded measurement that times out runs
// on in an abandoned goroutine, so un-synchronized state would race with
// the next call. An injected hang returns NaN after sleeping — never a
// plausible sample — so that even a lost timer race cannot fabricate a
// winning observation.
func InjectFaults(m core.Measure, arm int, rates FaultRates, sleep time.Duration, seed int64) core.Measure {
	var mu sync.Mutex
	r := rand.New(rand.NewSource(seed))
	return func(algo int, cfg param.Config) float64 {
		if algo == arm {
			mu.Lock()
			x := r.Float64()
			mu.Unlock()
			switch {
			case x < rates.Panic:
				panic("exp: injected fault")
			case x < rates.Panic+rates.Timeout:
				// No state is touched after the sleep: the loop has long
				// moved on.
				time.Sleep(sleep)
				return math.NaN()
			case x < rates.Total():
				return math.NaN()
			}
		}
		return m(algo, cfg)
	}
}

// faultBankSize is the number of real samples recorded per matcher; the
// k-th tuning run of an algorithm replays sample k mod faultBankSize, so
// any arm visited at least faultBankSize times exposes its exact bank
// minimum to the tuner.
const faultBankSize = 8

// faultTimeout is the guard deadline of the A10 runs; injected hangs
// sleep for faultSleep > faultTimeout so they always trip it, while
// replayed samples return instantly.
const (
	faultTimeout = 150 * time.Millisecond
	faultSleep   = 400 * time.Millisecond
)

// Replay is what a bank-driven run consumed: the seed its corpora and
// tuners were built from, and every bank it replayed, after any
// shaping. A failing gate prints it, so the failing run can be
// replayed exactly.
type Replay struct {
	Seed  int64
	Names []string // arm names, aligned with each bank's rows
	Banks []NamedBank
}

// NamedBank is one replayed bank: per arm, its recorded samples in ms.
type NamedBank struct {
	Name    string
	Samples [][]float64
}

// String prints the seed and every sample, each in its shortest form
// that parses back to the same float64.
func (r Replay) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d", r.Seed)
	for _, bk := range r.Banks {
		fmt.Fprintf(&b, "; bank %s (ms):", bk.Name)
		for i, samples := range bk.Samples {
			fmt.Fprintf(&b, " %s=%v", r.Names[i], samples)
		}
	}
	return b.String()
}

// recordBank measures every matcher faultBankSize times for real.
func recordBank(cfg Config) ([]string, [][]float64) {
	text := corpus.Bible(cfg.CorpusSize, cfg.Seed)
	pattern := []byte(cfg.Pattern)
	names := strmatch.Names()
	bank := make([][]float64, len(names))
	for i, n := range names {
		m, err := strmatch.New(n)
		if err != nil {
			panic(err)
		}
		strmatch.Run(m, pattern, text, cfg.Workers) // warmup
		bank[i] = make([]float64, faultBankSize)
		for k := range bank[i] {
			bank[i][k] = timeIt(func() {
				strmatch.Run(m, pattern, text, cfg.Workers)
			})
		}
	}
	return names, bank
}

// replayMeasure cycles deterministically through an arm's recorded
// samples. Mutex-protected for the same abandoned-goroutine reason as
// InjectFaults.
func replayMeasure(bank [][]float64) core.Measure {
	var mu sync.Mutex
	visits := make([]int, len(bank))
	return func(algo int, _ param.Config) float64 {
		mu.Lock()
		defer mu.Unlock()
		v := bank[algo][visits[algo]%len(bank[algo])]
		visits[algo]++
		return v
	}
}

// RunFaultInjection executes the A10 experiment: a clean (0% faults) run
// over the eight matchers' replayed sample banks, then an injected run
// with the same seed against the slowest arm, both under the full guard
// stack (core.WithGuard with a deadline, quarantine with fail-fast K=1,
// watchdog defaults). iters ≤ 0 uses 2000, the acceptance scale.
func RunFaultInjection(cfg Config, rates FaultRates, iters int) *FaultInjection {
	cfg = cfg.sanitize()
	if iters <= 0 {
		iters = 2000
	}
	names, bank := recordBank(cfg)

	// The faulty arm is the slowest by recorded minimum: decisively not
	// the winner, so the winner comparison isolates collateral damage of
	// the faults rather than the faulty arm's own ranking.
	faulty := 0
	minOf := func(s []float64) float64 {
		m := s[0]
		for _, v := range s[1:] {
			if v < m {
				m = v
			}
		}
		return m
	}
	for i := range bank {
		if minOf(bank[i]) > minOf(bank[faulty]) {
			faulty = i
		}
	}

	run := func(m core.Measure) (*core.Tuner, *guard.Quarantine) {
		q := guard.NewQuarantine(nominal.NewEpsilonGreedy(0.20))
		q.K = 1 // fail fast: random 20% failures rarely form K=3 streaks
		tuner, err := core.NewTuner(matcherAlgorithms(), q, nil, cfg.Seed,
			core.WithGuard(guard.WithTimeout(faultTimeout)))
		if err != nil {
			panic(err)
		}
		tuner.Run(iters, m)
		return tuner, q
	}

	clean, _ := run(replayMeasure(bank))
	cleanBest, _, _ := clean.Best()

	res := &FaultInjection{
		Labels:      names,
		Rates:       rates,
		Iters:       iters,
		FaultyArm:   faulty,
		CleanWinner: names[cleanBest],
		Replay:      Replay{Seed: cfg.Seed, Names: names, Banks: []NamedBank{{"bible", bank}}},
	}
	injected := InjectFaults(replayMeasure(bank), faulty, rates, faultSleep, cfg.Seed+101)
	guarded, q := run(injected)
	guardedBest, _, _ := guarded.Best()
	res.GuardedWinner = names[guardedBest]
	res.WinnersAgree = guardedBest == cleanBest
	res.Failures = guarded.FailureStats()
	res.Trips = q.Trips(faulty)
	res.FaultySelections = guarded.Counts()[faulty]
	return res
}

// RenderFigureA10 writes the fault-injection summary table.
func (f *FaultInjection) RenderFigureA10(w io.Writer) *report.Table {
	t := report.NewTable("Ablation A10: fault injection on the string matching case study",
		"property", "value")
	t.Addf("iterations", f.Iters)
	t.Addf("injected failure rate", f.Rates.Total())
	t.Addf("faulty arm", f.Labels[f.FaultyArm])
	t.Addf("clean winner", f.CleanWinner)
	t.Addf("guarded winner", f.GuardedWinner)
	t.Addf("winners agree", f.WinnersAgree)
	t.Addf("failures (panic/timeout/invalid)", f.failureBreakdown())
	t.Addf("quarantine trips of faulty arm", f.Trips)
	t.Addf("faulty-arm selections", f.FaultySelections)
	t.Addf("iterations pinned (degraded)", f.Failures.PinnedIterations)
	if w != nil {
		t.Render(w)
	}
	return t
}

func (f *FaultInjection) failureBreakdown() string {
	return fmt.Sprintf("%d/%d/%d", f.Failures.Panics, f.Failures.Timeouts, f.Failures.Invalids)
}
