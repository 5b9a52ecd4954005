package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/nominal"
	"repro/internal/param"
)

// Satellite: Observe must treat non-finite samples as penalized failures
// — never as the incumbent — even without WithGuard.
func TestObserveNaNNeverBecomesIncumbent(t *testing.T) {
	algos, _ := syntheticAlgos()
	tu := mustNew(t, algos, nominal.NewRoundRobin(), DefaultFactory, 1)

	tu.Next()
	tu.Observe(5)
	tu.Next()
	tu.Observe(math.NaN())
	tu.Next()
	tu.Observe(math.Inf(1))

	_, _, best := tu.Best()
	if best != 5 || math.IsNaN(best) {
		t.Fatalf("Best() = %g after NaN/Inf observations, want the finite 5", best)
	}
	fs := tu.FailureStats()
	if fs.Total != 2 || fs.Invalids != 2 {
		t.Errorf("FailureStats = %+v, want 2 invalids", fs)
	}
	// The recorded penalty must exceed the worst valid observation so the
	// strategies steer away.
	h := tu.History()
	if !h[1].Failed || h[1].Value <= 5 || math.IsNaN(h[1].Value) {
		t.Errorf("NaN iteration recorded as %+v, want finite penalty > 5", h[1])
	}
}

func TestObserveAllNaNKeepsBestEmpty(t *testing.T) {
	algos, _ := syntheticAlgos()
	tu := mustNew(t, algos, nominal.NewRoundRobin(), DefaultFactory, 1)
	for i := 0; i < 10; i++ {
		tu.Next()
		tu.Observe(math.NaN())
	}
	algo, cfg, val := tu.Best()
	if algo != -1 || cfg != nil || !math.IsInf(val, 1) {
		t.Errorf("Best after all-failed run = (%d, %v, %g), want (-1, nil, +Inf)", algo, cfg, val)
	}
	if fs := tu.FailureStats(); fs.Total != 10 {
		t.Errorf("failures = %d, want 10", fs.Total)
	}
}

func TestStepWithGuardRecoversPanics(t *testing.T) {
	algos, m := syntheticAlgos()
	crashing := func(algo int, cfg param.Config) float64 {
		if algo == 2 {
			panic("algorithm 2 is broken")
		}
		return m(algo, cfg)
	}
	tu := mustNew(t, algos, nominal.NewEpsilonGreedy(0.2), DefaultFactory, 1, WithGuard())
	tu.Run(300, crashing)

	if tu.Iterations() != 300 {
		t.Fatalf("guarded run completed %d iterations, want 300", tu.Iterations())
	}
	best, _, val := tu.Best()
	if best == 2 {
		t.Error("crashing algorithm became the incumbent")
	}
	if val > 10 {
		t.Errorf("best %g, want ≤ 10 despite the crashing arm", val)
	}
	fs := tu.FailureStats()
	if fs.Panics == 0 || fs.PerAlgo[2] != fs.Total {
		t.Errorf("FailureStats = %+v, want all failures on algorithm 2 as panics", fs)
	}
	if g := tu.Guard(); g == nil || g.Stats().Panics != fs.Panics {
		t.Error("Guard() accessor or guard stats inconsistent")
	}
}

func TestStepWithGuardTimeout(t *testing.T) {
	// Race-target test: the deadline goroutine must be race-clean while
	// the loop keeps measuring past abandoned calls.
	algos, m := syntheticAlgos()
	slow := func(algo int, cfg param.Config) float64 {
		if algo == 2 {
			time.Sleep(80 * time.Millisecond)
			return 1 // would win, but never arrives in time
		}
		return m(algo, cfg)
	}
	tu := mustNew(t, algos, nominal.NewRoundRobin(), DefaultFactory, 1,
		WithGuard(guard.WithTimeout(10*time.Millisecond)))
	tu.Run(12, slow)
	fs := tu.FailureStats()
	if fs.Timeouts != 4 {
		t.Errorf("timeouts = %d, want 4 (round-robin visits algo 2 four times)", fs.Timeouts)
	}
	if best, _, _ := tu.Best(); best == 2 {
		t.Error("timed-out algorithm became the incumbent")
	}
}

func TestGuardedRecordMarksFailures(t *testing.T) {
	algos, _ := syntheticAlgos()
	tu := mustNew(t, algos, nominal.NewRoundRobin(), DefaultFactory, 1, WithGuard())
	rec := tu.Step(func(int, param.Config) float64 { panic("x") })
	if !rec.Failed || rec.Value != guard.DefaultFallbackPenalty {
		t.Errorf("record = %+v, want Failed with fallback penalty", rec)
	}
	rec = tu.Step(func(int, param.Config) float64 { return 3 })
	if rec.Failed || rec.Value != 3 {
		t.Errorf("record = %+v, want clean 3", rec)
	}
}

func TestObserveFailureAskTell(t *testing.T) {
	algos, _ := syntheticAlgos()
	tu := mustNew(t, algos, nominal.NewRoundRobin(), DefaultFactory, 1)
	tu.Next()
	tu.Observe(8)
	algo, _ := tu.Next()
	tu.ObserveFailure(guard.Failure{Kind: guard.Panic, Algo: algo})
	fs := tu.FailureStats()
	if fs.Panics != 1 {
		t.Errorf("FailureStats = %+v, want 1 panic", fs)
	}
	// The penalty derives from the worst valid observation (8 × factor).
	h := tu.History()
	if h[1].Value != 8*guard.DefaultPenaltyFactor {
		t.Errorf("penalty = %g, want %g", h[1].Value, 8*guard.DefaultPenaltyFactor)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ObserveFailure without a pending Next did not panic")
			}
		}()
		tu.ObserveFailure(guard.Failure{})
	}()
}

// failAfter returns a measurement that behaves until iteration from, then
// fails every call (NaN) until iteration to.
func failWindowMeasure(m Measure, calls *int, from, to int) Measure {
	return func(algo int, cfg param.Config) float64 {
		n := *calls
		*calls = n + 1
		if n >= from && n < to {
			return math.NaN()
		}
		return m(algo, cfg)
	}
}

func TestDegradationPinsIncumbentAndRecovers(t *testing.T) {
	algos, m := syntheticAlgos()
	calls := 0
	// 60 healthy iterations, then 80 where everything fails, then healthy
	// again.
	meas := failWindowMeasure(m, &calls, 60, 140)
	tu := mustNew(t, algos, nominal.NewEpsilonGreedy(0.1), DefaultFactory, 3,
		withWatchdog(8, 0.5))

	tu.Run(60, meas)
	if tu.Degraded() {
		t.Fatal("degraded during the healthy phase")
	}
	bestBefore, _, valBefore := tu.Best()

	tu.Run(80, meas)
	if !tu.Degraded() {
		t.Fatal("watchdog did not trigger degradation under a 100% failure rate")
	}
	fs := tu.FailureStats()
	if fs.PinnedIterations == 0 {
		t.Error("degradation mode never pinned the incumbent")
	}
	if fs.RecentRate < 0.5 {
		t.Errorf("recent failure rate %g, want ≥ 0.5", fs.RecentRate)
	}
	best, _, val := tu.Best()
	if best != bestBefore || val != valBefore {
		t.Errorf("incumbent moved during the outage: (%d, %g) → (%d, %g)",
			bestBefore, valBefore, best, val)
	}

	tu.Run(40, meas)
	if tu.Degraded() {
		t.Error("tuner did not recover once failures stopped")
	}
}

func TestDegradationRequiresIncumbent(t *testing.T) {
	// With no success ever, there is nothing to pin: the tuner must keep
	// exploring (and failing) rather than pinning a nonexistent best.
	algos, _ := syntheticAlgos()
	tu := mustNew(t, algos, nominal.NewRoundRobin(), DefaultFactory, 1, withWatchdog(4, 0.5))
	tu.Run(40, func(int, param.Config) float64 { return math.NaN() })
	if tu.Degraded() {
		t.Error("degraded with no incumbent to pin")
	}
	counts := tu.Counts()
	for i, c := range counts {
		if c == 0 {
			t.Errorf("algorithm %d starved during an all-failure run", i)
		}
	}
}

func TestWatchdogDisabled(t *testing.T) {
	algos, m := syntheticAlgos()
	calls := 0
	tu := mustNew(t, algos, nominal.NewEpsilonGreedy(0.1), DefaultFactory, 3,
		withWatchdog(0, 0.5))
	tu.Run(40, failWindowMeasure(m, &calls, 10, 200))
	if tu.Degraded() {
		t.Error("watchdog fired despite window 0 (disabled)")
	}
	if fs := tu.FailureStats(); fs.RecentRate != 0 {
		t.Errorf("recent rate %g with watchdog disabled, want 0", fs.RecentRate)
	}
}

func TestGuardWithQuarantineSuspendsCrashingArm(t *testing.T) {
	// End-to-end: guard converts crashes into failures, the quarantine
	// selector suspends the arm, and the tuner still finds the optimum.
	algos, m := syntheticAlgos()
	crashing := func(algo int, cfg param.Config) float64 {
		if algo == 2 {
			panic("broken")
		}
		return m(algo, cfg)
	}
	q := guard.NewQuarantine(nominal.NewEpsilonGreedy(0.1))
	q.K = 2
	tu := mustNew(t, algos, q, DefaultFactory, 5, WithGuard())
	tu.Run(400, crashing)

	if tu.Iterations() != 400 {
		t.Fatal("guarded+quarantined run did not complete")
	}
	if q.Trips(2) == 0 {
		t.Error("crashing arm never quarantined")
	}
	counts := tu.Counts()
	if counts[2] > 400/4 {
		t.Errorf("crashing arm still ran %d of 400 iterations", counts[2])
	}
	if counts[2] == 0 {
		t.Error("quarantine permanently excluded the crashing arm")
	}
	best, _, val := tu.Best()
	if best == 2 || val > 10 {
		t.Errorf("best = (%d, %g), want a healthy arm ≤ 10", best, val)
	}
}

func TestTunerDeterminismWithGuard(t *testing.T) {
	// The guard must not perturb the tuner's random streams: a guarded
	// run over a deterministic failing measure is reproducible.
	run := func() []Record {
		algos, m := syntheticAlgos()
		calls := 0
		tu := mustNew(t, algos, nominal.NewEpsilonGreedy(0.1), DefaultFactory, 42, WithGuard())
		tu.Run(100, failWindowMeasure(m, &calls, 20, 40))
		return tu.History()
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Algo != b[i].Algo || a[i].Value != b[i].Value || a[i].Failed != b[i].Failed {
			t.Fatalf("iteration %d differs between identical guarded runs", i)
		}
	}
}

// withWatchdog sets the failure-rate watchdog's window and threshold,
// which a tuner fixes at DefaultWatchWindow and DefaultDegradeThreshold;
// a window of 0 disables it.
func withWatchdog(window int, threshold float64) Option {
	return func(c *Tuner) error {
		c.t.watchWindow, c.t.degradeAt, c.t.recoverAt = window, threshold, threshold/2
		return nil
	}
}
