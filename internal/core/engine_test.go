package core

import (
	"errors"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/nominal"
	"repro/internal/param"
	"repro/internal/search"
)

// engineAlgos is a mixed set for engine tests: tunable and
// parameterless algorithms.
func engineAlgos() []Algorithm {
	return []Algorithm{
		{Name: "plain"},
		{Name: "tuned", Space: param.NewSpace(param.NewRatio("alpha", 1, 10), param.NewRatioInt("block", 8, 512))},
		{Name: "other", Space: param.NewSpace(param.NewRatio("beta", 0, 1))},
		{Name: "spare"},
	}
}

// engineMeasure is a deterministic synthetic measurement.
func engineMeasure(algo int, cfg param.Config) float64 {
	v := float64(4 + 3*algo)
	for _, x := range cfg {
		v += 0.01 * math.Abs(x-5)
	}
	return v
}

func newEngine(t *testing.T, seed int64, opts ...Option) *Tuner {
	t.Helper()
	ct, err := NewTuner(engineAlgos(), nominal.NewEpsilonGreedy(0.10), nil, seed, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// TestConcurrentTunerStress hammers the engine from 32 goroutines with
// interleaved lease/complete/fail/expire and asserts that no iteration
// is lost or double-counted. Run under -race this is the engine's
// synchronization proof. The checkpointed case also drives the journal
// sync on every mutex release, and a rebuild over its directory must
// come back with every completed, failed and expired trial.
func TestConcurrentTunerStress(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "in-memory"
		if durable {
			name = "checkpointed"
		}
		t.Run(name, func(t *testing.T) { stressEngine(t, durable) })
	}
}

func stressEngine(t *testing.T, durable bool) {
	const (
		workers   = 32
		perWorker = 100
		total     = workers * perWorker
	)
	opts := []Option{WithLeaseTimeout(40 * time.Millisecond)}
	var dir string
	if durable {
		dir = t.TempDir()
		opts = append(opts, WithCheckpoint(dir, 50))
	}
	ct := newEngine(t, 1, opts...)
	var wg sync.WaitGroup
	var abandoned atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr, err := ct.Lease()
				if err != nil {
					t.Errorf("worker %d: Lease: %v", w, err)
					return
				}
				switch i % 5 {
				case 3:
					// Failure path; the lease may have expired first.
					err := ct.Fail(tr.ID, guard.Failure{Kind: guard.Panic, Err: errors.New("boom")})
					if err != nil && !errors.Is(err, ErrUnknownTrial) {
						t.Errorf("worker %d: Fail: %v", w, err)
					}
				case 4:
					// Abandon: the engine must reclaim it as a timeout.
					abandoned.Add(1)
				default:
					err := ct.Complete(tr.ID, engineMeasure(tr.Algo, tr.Config))
					if err != nil && !errors.Is(err, ErrUnknownTrial) {
						t.Errorf("worker %d: Complete: %v", w, err)
					}
				}
				if i%7 == 0 {
					// Lock-free fast paths, read concurrently with writes.
					ct.Best()
					ct.Counts()
					ct.Iterations()
				}
			}
		}(w)
	}
	wg.Wait()

	// Drain: every abandoned lease must expire and be reclaimed.
	deadline := time.Now().Add(5 * time.Second)
	for ct.InFlight() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d leases still in flight after drain deadline", ct.InFlight())
		}
		time.Sleep(10 * time.Millisecond)
		ct.ReclaimExpired()
	}

	st := ct.Stats()
	if st.Leased != total {
		t.Fatalf("leased %d trials, want %d", st.Leased, total)
	}
	if got := st.Completed + st.Failed + st.Expired; got != total {
		t.Fatalf("completed %d + failed %d + expired %d = %d, want %d (no lost or double-counted trials)",
			st.Completed, st.Failed, st.Expired, got, total)
	}
	if st.Expired < uint64(abandoned.Load()) {
		t.Fatalf("expired %d < abandoned %d", st.Expired, abandoned.Load())
	}
	if ct.Iterations() != total {
		t.Fatalf("Iterations() = %d, want %d", ct.Iterations(), total)
	}
	sum := 0
	for _, c := range ct.Counts() {
		sum += c
	}
	if sum != total {
		t.Fatalf("sum of Counts() = %d, want %d", sum, total)
	}
	fs := ct.FailureStats()
	if got := uint64(fs.Total); got != st.Failed+st.Expired {
		t.Fatalf("FailureStats.Total = %d, want failed %d + expired %d", got, st.Failed, st.Expired)
	}
	if algo, cfg, val := ct.Best(); algo < 0 || cfg == nil || math.IsInf(val, 1) {
		t.Fatalf("no best after %d trials: (%d, %v, %v)", total, algo, cfg, val)
	}
	if !durable {
		return
	}
	if err := ct.CheckpointErr(); err != nil {
		t.Fatal(err)
	}
	re := newEngine(t, 1, WithCheckpoint(dir, 50))
	if got, want := re.Iterations(), int(st.Completed+st.Failed+st.Expired); got != want {
		t.Fatalf("rebuilt engine at %d iterations, want completed + failed + expired = %d", got, want)
	}
}

// TestLeaseExpiryReclaimedAsTimeout drives expiry with an injected
// clock: an unreported lease must complete as a Timeout failure exactly
// once, and its late Complete must be rejected.
func TestLeaseExpiryReclaimedAsTimeout(t *testing.T) {
	ct := newEngine(t, 2, WithLeaseTimeout(time.Second))
	now := time.Unix(1000, 0)
	ct.now = func() time.Time { return now }

	tr, err := ct.Lease()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Deadline != now.Add(time.Second) {
		t.Fatalf("deadline = %v, want %v", tr.Deadline, now.Add(time.Second))
	}
	if n := ct.ReclaimExpired(); n != 0 {
		t.Fatalf("reclaimed %d before the deadline", n)
	}
	now = now.Add(2 * time.Second)
	if n := ct.ReclaimExpired(); n != 1 {
		t.Fatalf("reclaimed %d at the deadline, want 1", n)
	}
	if err := ct.Complete(tr.ID, 1.0); !errors.Is(err, ErrUnknownTrial) {
		t.Fatalf("late Complete after expiry: err = %v, want ErrUnknownTrial", err)
	}
	fs := ct.FailureStats()
	if fs.Timeouts != 1 || fs.Total != 1 {
		t.Fatalf("failure stats after expiry: %+v, want exactly one timeout", fs)
	}
	if ct.Iterations() != 1 {
		t.Fatalf("Iterations() = %d, want 1 (the reclaimed trial)", ct.Iterations())
	}
}

// TestUnknownTrialRejected covers the remaining ticket-misuse paths.
// TestReleaseTakesLeaseBack: a released lease ends without a
// completion, failure or penalty; its arm's primary proposal is the
// next primary, though random search would draw a new point; a second
// release of the same ID is unknown.
func TestReleaseTakesLeaseBack(t *testing.T) {
	algos := []Algorithm{{Name: "tuned", Space: param.NewSpace(param.NewRatio("alpha", 1, 10))}}
	random := func() search.Strategy { return search.NewRandom(1) }
	ct, err := NewTuner(algos, nominal.NewEpsilonGreedy(0.10), random, 1)
	if err != nil {
		t.Fatal(err)
	}
	trials, err := ct.LeaseN(2)
	if err != nil {
		t.Fatal(err)
	}
	primary, spec := trials[0], trials[1]
	if primary.Speculative || !spec.Speculative {
		t.Fatalf("leases %+v, want a primary then a speculative one", trials)
	}
	errs := ct.FailN([]TrialFailure{{ID: primary.ID, Released: true}, {ID: spec.ID, Released: true}})
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("release: %v", errs)
	}
	if errs := ct.FailN([]TrialFailure{{ID: primary.ID, Released: true}}); !errors.Is(errs[0], ErrUnknownTrial) {
		t.Fatalf("second release = %v, want ErrUnknownTrial", errs[0])
	}
	st := ct.Stats()
	if st.Released != 2 || st.Failed != 0 || st.Completed != 0 || st.InFlight != 0 {
		t.Fatalf("stats after release %+v", st)
	}
	if fs := ct.FailureStats(); fs.Total != 0 || ct.Iterations() != 0 || ct.Counts()[0] != 0 {
		t.Fatalf("release reached the tuner: failures %+v, %d iterations", fs, ct.Iterations())
	}
	again, err := ct.Lease()
	if err != nil {
		t.Fatal(err)
	}
	if again.Speculative || !again.Config.Equal(primary.Config) {
		t.Fatalf("lease after the release = %+v, want the released primary %v again", again, primary.Config)
	}
}

func TestUnknownTrialRejected(t *testing.T) {
	ct := newEngine(t, 3)
	if err := ct.Complete(999, 1.0); !errors.Is(err, ErrUnknownTrial) {
		t.Fatalf("Complete(unknown) = %v", err)
	}
	tr, _ := ct.Lease()
	if err := ct.Complete(tr.ID, 1.0); err != nil {
		t.Fatal(err)
	}
	if err := ct.Complete(tr.ID, 1.0); !errors.Is(err, ErrUnknownTrial) {
		t.Fatalf("double Complete = %v", err)
	}
	if err := ct.Fail(tr.ID, guard.Failure{Kind: guard.Panic}); !errors.Is(err, ErrUnknownTrial) {
		t.Fatalf("Fail after Complete = %v", err)
	}
}

// TestMaxInFlight checks the lease bound.
func TestMaxInFlight(t *testing.T) {
	ct := newEngine(t, 4, WithMaxInFlight(2))
	a, err := ct.Lease()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ct.Lease(); err != nil {
		t.Fatal(err)
	}
	if _, err := ct.Lease(); !errors.Is(err, ErrTooManyInFlight) {
		t.Fatalf("third lease = %v, want ErrTooManyInFlight", err)
	}
	if err := ct.Complete(a.ID, 1.0); err != nil {
		t.Fatal(err)
	}
	if _, err := ct.Lease(); err != nil {
		t.Fatalf("lease after completion = %v", err)
	}
}

// TestAdapterPanicsMirrorTuner checks that the single-caller ask/tell
// pair keeps its misuse contract: Observe needs a pending Next, and Next
// needs none.
func TestAdapterPanicsMirrorTuner(t *testing.T) {
	ct := newEngine(t, 5)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Observe without Next", func() { ct.Observe(1.0) })
	ct.Next()
	mustPanic("double Next", func() { ct.Next() })
	ct.Observe(1.0)
	mustPanic("ObserveFailure without Next", func() { ct.ObserveFailure(guard.Failure{Kind: guard.Panic}) })
}

// TestEngineStepRunAndGuard exercises Step/Run/RunPool with a guard
// installed: panicking measurements become failures, never crashes.
func TestEngineStepRunAndGuard(t *testing.T) {
	ct, err := NewTuner(engineAlgos(), guard.NewQuarantine(nominal.NewEpsilonGreedy(0.10)), nil, 6, WithGuard())
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	m := func(algo int, cfg param.Config) float64 {
		if calls.Add(1)%9 == 0 {
			panic("synthetic measurement crash")
		}
		return engineMeasure(algo, cfg)
	}
	rec := ct.Step(m)
	if rec.Iteration != 0 {
		t.Fatalf("first Step iteration = %d", rec.Iteration)
	}
	ct.Run(19, m)
	ct.RunPool(8, 80, m)
	if got := ct.Iterations(); got != 100 {
		t.Fatalf("Iterations() = %d, want 100", got)
	}
	fs := ct.FailureStats()
	if fs.Panics == 0 {
		t.Fatal("guard saw no panics")
	}
	if fs.Total != fs.Panics {
		t.Fatalf("unexpected non-panic failures: %+v", fs)
	}
}

// TestSpeculativeLeasesMarked checks that holding several leases on one
// algorithm yields speculative trials, and that speculative completions
// still reach the global best.
func TestSpeculativeLeasesMarked(t *testing.T) {
	// Round-robin across 1 tunable algorithm forces same-algo leases.
	ct, err := NewTuner([]Algorithm{{Name: "only", Space: param.NewSpace(param.NewRatio("x", 0, 10))}},
		nominal.NewEpsilonGreedy(0), nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	trials := make([]Trial, 4)
	spec := 0
	for i := range trials {
		tr, err := ct.Lease()
		if err != nil {
			t.Fatal(err)
		}
		if tr.Speculative {
			spec++
		}
		trials[i] = tr
	}
	if spec != 3 {
		t.Fatalf("4 concurrent leases on one algorithm: %d speculative, want 3", spec)
	}
	// Complete the speculative ones with a great value: the engine's
	// global best must capture it even though phase one never sees it.
	for _, tr := range trials[1:] {
		if err := ct.Complete(tr.ID, 0.25); err != nil {
			t.Fatal(err)
		}
	}
	if err := ct.Complete(trials[0].ID, 5.0); err != nil {
		t.Fatal(err)
	}
	if _, _, v := ct.Best(); v != 0.25 {
		t.Fatalf("global best = %v, want the speculative 0.25", v)
	}
}

// TestSnapshotsExactAfterEachOperation checks that the lock-free reads
// match the decision state as soon as each call returns, although the
// snapshots are published once per operation rather than per
// completion: a 16-trial CompleteN, a FailN, an Absorb and an expiry
// sweep each leave Best, Counts and Iterations exact. A completion that
// leaves the best where it was keeps the best snapshot.
func TestSnapshotsExactAfterEachOperation(t *testing.T) {
	ct := newEngine(t, 5, WithLeaseTimeout(time.Second))
	now := time.Unix(1000, 0)
	ct.now = func() time.Time { return now }
	check := func(op string) {
		t.Helper()
		ct.mu.Lock()
		algo, cfg, val := ct.t.bestAlgo, ct.t.bestCfg.Clone(), ct.t.bestVal
		counts := append([]int(nil), ct.t.counts...)
		iters := ct.t.total
		ct.mu.Unlock()
		if gAlgo, gCfg, gVal := ct.Best(); gAlgo != algo || gVal != val || !gCfg.Equal(cfg) {
			t.Fatalf("after %s: Best() = (%d, %v, %g), state holds (%d, %v, %g)", op, gAlgo, gCfg, gVal, algo, cfg, val)
		}
		if got := ct.Counts(); !slices.Equal(got, counts) {
			t.Fatalf("after %s: Counts() = %v, state holds %v", op, got, counts)
		}
		if got := ct.Iterations(); got != iters {
			t.Fatalf("after %s: Iterations() = %d, state holds %d", op, got, iters)
		}
	}

	trials, err := ct.LeaseN(16)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]TrialResult, len(trials))
	for i, tr := range trials {
		results[i] = TrialResult{ID: tr.ID, Value: engineMeasure(tr.Algo, tr.Config)}
	}
	ct.CompleteN(results)
	check("CompleteN")

	if trials, err = ct.LeaseN(4); err != nil {
		t.Fatal(err)
	}
	fails := make([]TrialFailure, len(trials))
	for i, tr := range trials {
		fails[i] = TrialFailure{ID: tr.ID, Failure: guard.Failure{Kind: guard.Panic}}
	}
	ct.FailN(fails)
	check("FailN")

	ct.Absorb([]nominal.Observation{{Arm: 0, Value: 1}, {Arm: 3, Value: 2}})
	check("Absorb")

	if _, err := ct.LeaseN(2); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Second)
	if n := ct.ReclaimExpired(); n != 2 {
		t.Fatalf("reclaimed %d, want 2", n)
	}
	check("expiry sweep")

	before := ct.best.Load()
	tr, err := ct.Lease()
	if err != nil {
		t.Fatal(err)
	}
	ct.CompleteN([]TrialResult{{ID: tr.ID, Value: 1e9}})
	check("a completion worse than the best")
	if ct.best.Load() != before {
		t.Fatal("a completion that left the best unchanged replaced its snapshot")
	}
}

// TestConcurrentStepsAndLeases: Step keeps its trial out of the lease
// map, yet steps from several goroutines, beside workers leasing and
// completing, settle every trial exactly once: the ledger balances and
// nothing stays in flight.
func TestConcurrentStepsAndLeases(t *testing.T) {
	ct := newEngine(t, 8)
	const goroutines, each = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			ct.Run(each, engineMeasure)
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr, err := ct.Lease()
				if err != nil {
					t.Error(err)
					return
				}
				if err := ct.Complete(tr.ID, engineMeasure(tr.Algo, tr.Config)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	s := ct.Stats()
	if s.Leased != 2*goroutines*each || s.Completed != s.Leased || s.InFlight != 0 {
		t.Fatalf("stats %+v, want %d leased and completed, none in flight", s, 2*goroutines*each)
	}
	if got := ct.Iterations(); got != 2*goroutines*each {
		t.Fatalf("Iterations() = %d, want %d", got, 2*goroutines*each)
	}
}

// TestPanickingStepReleasesItsTrial: an unguarded measurement that
// panics inside Step hands its trial back before the panic reaches the
// caller, so a caller that recovers leaves nothing in flight, and the
// primary proposal is issued again.
func TestPanickingStepReleasesItsTrial(t *testing.T) {
	ct := newEngine(t, 3, WithMaxInFlight(1))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the measurement's panic did not reach the caller")
			}
		}()
		ct.Step(func(int, param.Config) float64 { panic("measurement crash") })
	}()
	if s := ct.Stats(); s.InFlight != 0 || s.Released != 1 || s.Leased != 1 {
		t.Fatalf("after a recovered panicking Step: %+v, want the trial released", s)
	}
	if rec := ct.Step(engineMeasure); rec.Iteration != 0 {
		t.Fatalf("next Step recorded iteration %d, want 0", rec.Iteration)
	}
}
