package ctxtune

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/nominal"
	"repro/internal/param"
)

// Two-regime model for engine tests: features [1] are the "cheap" class
// where algorithm 0 wins (cost 1 vs 3), features [100] the "expensive"
// class where algorithm 1 wins (cost 9 vs 30). The class means differ by
// far more than the split tree's lift gate, and the per-class winners
// are opposite, so a correct engine must both split the shared bucket
// and learn a different incumbent on each side.
var (
	cheapF = Features{1}
	dearF  = Features{100}
)

func classCost(f Features, algo int) float64 {
	if f[0] < 50 {
		if algo == 0 {
			return 1
		}
		return 3
	}
	if algo == 1 {
		return 9
	}
	return 30
}

func testConfig(t *testing.T, dir string) Config {
	t.Helper()
	return Config{
		Algos: []core.Algorithm{{Name: "a"}, {Name: "b"}},
		// Windowed ε-greedy: contexts here disagree with the global
		// fold's winner, so the imported warm start must age out (see
		// warmStartKeep).
		Selector: func() nominal.Selector {
			return &nominal.EpsilonGreedy{Eps: 0.10, RecencyWindow: 25}
		},
		Seed:        7,
		Partitioner: NewTree(1, 32, 1.5),
		Dir:         dir,
		Every:       50,
	}
}

// drive runs n lease/complete rounds of the two-class stream.
func drive(t *testing.T, e *Engine, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		f := cheapF
		if i%2 == 1 {
			f = dearF
		}
		trials, err := e.LeaseNFor(f, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range trials {
			errs := e.CompleteN([]core.TrialResult{{ID: tr.ID, Value: classCost(f, tr.Algo)}})
			if errs[0] != nil {
				t.Fatalf("complete trial %d: %v", tr.ID, errs[0])
			}
		}
	}
}

func TestEngineSplitsAndLearnsPerContext(t *testing.T) {
	cfg := testConfig(t, "")
	made := recordSelectors(&cfg)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, e, 600)

	if cheap, dear := e.part.Context(cheapF), e.part.Context(dearF); cheap == dear {
		t.Fatalf("engine never split the shared bucket: both classes in %q", cheap)
	}
	if a, _, _ := e.BestFor(cheapF); a != 0 {
		t.Errorf("cheap-class winner %d, want 0", a)
	}
	if a, _, _ := e.BestFor(dearF); a != 1 {
		t.Errorf("dear-class winner %d, want 1", a)
	}
	if n := e.ContextCount(); n < 2 {
		t.Errorf("ContextCount = %d, want >= 2", n)
	}
	if it := e.Iterations(); it != 600 {
		t.Errorf("Iterations = %d, want 600", it)
	}
	// Contextual completions teach the global selector, though no
	// trial ran on the global engine.
	if it := e.global.Iterations(); it != 0 {
		t.Errorf("global engine ran %d trials, want 0", it)
	}
	fresh := testConfig(t, "").Selector()
	fresh.Init(2)
	want, _ := fresh.(nominal.Stateful).Export()
	if got := made.states(t, e)[GlobalContext]; bytes.Equal(got, want) {
		t.Errorf("global selector learned nothing from contextual traffic: %s", got)
	}
}

func TestEngineGlobalPassthrough(t *testing.T) {
	e, err := New(testConfig(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	trials, err := e.LeaseNFor(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trials {
		if tr.ID >= extIDBase {
			t.Errorf("feature-less trial got contextual ID %d", tr.ID)
		}
	}
	results := make([]core.TrialResult, len(trials))
	for i, tr := range trials {
		results[i] = core.TrialResult{ID: tr.ID, Value: 2}
	}
	for i, err := range e.CompleteN(results) {
		if err != nil {
			t.Errorf("global completion %d: %v", i, err)
		}
	}
	if it := e.global.Iterations(); it != len(trials) {
		t.Errorf("global iterations = %d, want %d", it, len(trials))
	}
}

func TestEngineMixedBatchAndUnknownIDs(t *testing.T) {
	e, err := New(testConfig(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	g, err := e.LeaseNFor(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := e.LeaseNFor(cheapF, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c[0].ID < extIDBase {
		t.Fatalf("contextual trial got global ID %d", c[0].ID)
	}
	errs := e.CompleteN([]core.TrialResult{
		{ID: g[0].ID, Value: 1},
		{ID: c[0].ID, Value: 1},
		{ID: extIDBase + 999999, Value: 1}, // never leased
	})
	if errs[0] != nil || errs[1] != nil {
		t.Errorf("valid completions errored: %v %v", errs[0], errs[1])
	}
	if errs[2] == nil {
		t.Error("unknown contextual ID accepted")
	}
	// Idempotency: re-completing is acknowledged as unknown, not applied.
	errs = e.CompleteN([]core.TrialResult{{ID: c[0].ID, Value: 1}})
	if errs[0] == nil {
		t.Error("duplicate contextual completion accepted")
	}
}

func TestEngineHeartbeatAliveRouting(t *testing.T) {
	e, err := New(testConfig(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := e.LeaseNFor(nil, 1)
	c, _ := e.LeaseNFor(cheapF, 1)
	ids := []uint64{g[0].ID, c[0].ID, extIDBase + 424242}
	for i, want := range []bool{true, true, false} {
		if got := e.Heartbeat(ids)[i]; got != want {
			t.Errorf("Heartbeat[%d] = %v, want %v", i, got, want)
		}
		if got := e.Alive(ids)[i]; got != want {
			t.Errorf("Alive[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestEngineCheckpointRestartRediscoversContexts(t *testing.T) {
	dir := t.TempDir()
	e, err := New(testConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, e, 600)
	wantContexts := e.Contexts()
	wantCheap, _, _ := e.BestFor(cheapF)
	wantDear, _, _ := e.BestFor(dearF)
	if wantCheap == wantDear {
		t.Fatalf("setup failed: same winner %d for both classes", wantCheap)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := New(testConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Contexts(); len(got) != len(wantContexts) {
		t.Fatalf("restart contexts %v, want %v", got, wantContexts)
	}
	if r.ContextCount() < 2 {
		t.Errorf("restart replicas = %d, want >= 2", r.ContextCount())
	}
	// The restored selectors must still route each class to its winner:
	// lease a handful per class and check the majority pick.
	for _, tc := range []struct {
		f    Features
		want int
	}{{cheapF, wantCheap}, {dearF, wantDear}} {
		picks := make(map[int]int)
		for i := 0; i < 20; i++ {
			trials, err := r.LeaseNFor(tc.f, 1)
			if err != nil {
				t.Fatal(err)
			}
			picks[trials[0].Algo]++
			r.CompleteN([]core.TrialResult{{ID: trials[0].ID, Value: classCost(tc.f, trials[0].Algo)}})
		}
		if picks[tc.want] <= picks[1-tc.want] {
			t.Errorf("class %v picks after restart = %v, want majority on %d", tc.f, picks, tc.want)
		}
	}
}

// TestSplitAfterCheckpointIsJournaled: Checkpoint closes the journal
// segment, and the next operation reopens it, so a split learned after a
// checkpoint is still a record of the segment and survives a kill.
// Checkpoints run concurrently with the first phase's traffic (run it
// under -race); the second phase splits the dear context again, after
// the last checkpoint.
func TestSplitAfterCheckpointIsJournaled(t *testing.T) {
	dir := t.TempDir()
	e, err := New(testConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			if err := e.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	drive(t, e, 600)
	<-done
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A third class, far above the dear one and a hundred times its
	// cost, shares the dear context until that context splits.
	hugeF := Features{10000}
	for i := 0; i < 200; i++ {
		f, scale := dearF, 1.0
		if i%2 == 1 {
			f, scale = hugeF, 100
		}
		trials, err := e.LeaseNFor(f, 1)
		if err != nil {
			t.Fatal(err)
		}
		e.CompleteN([]core.TrialResult{{ID: trials[0].ID, Value: scale * classCost(dearF, trials[0].Algo)}})
	}
	dear, huge := e.part.Context(dearF), e.part.Context(hugeF)
	if dear == huge {
		t.Fatal("setup failed: the dear context did not split")
	}
	// No Checkpoint, no Close: simulate a hard kill.

	r, err := New(testConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.part.Context(dearF); got != dear {
		t.Errorf("dear class routes to %q after kill, want %q", got, dear)
	}
	if got := r.part.Context(hugeF); got != huge {
		t.Errorf("huge class routes to %q after kill, want %q", got, huge)
	}
}

func TestEngineSplitJournalSurvivesKill(t *testing.T) {
	// Kill case: the process dies after a split but before any
	// Checkpoint — the split is read back from the journal segment.
	dir := t.TempDir()
	e, err := New(testConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, e, 600)
	cheap, dear := e.part.Context(cheapF), e.part.Context(dearF)
	if cheap == dear {
		t.Fatal("setup failed: no split happened")
	}
	// No Checkpoint, no Close: simulate a hard kill.

	r, err := New(testConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.part.Context(cheapF); got != cheap {
		t.Errorf("cheap class routes to %q after kill, want %q", got, cheap)
	}
	if got := r.part.Context(dearF); got != dear {
		t.Errorf("dear class routes to %q after kill, want %q", got, dear)
	}
}

func TestEngineChecksConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{Algos: []core.Algorithm{{Name: "a"}}}); err == nil {
		t.Error("nil selector factory accepted")
	}
}

func TestEngineAggregatesAcrossContexts(t *testing.T) {
	e, err := New(testConfig(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, e, 100)
	g, _ := e.LeaseNFor(nil, 2)
	for _, tr := range g {
		e.CompleteN([]core.TrialResult{{ID: tr.ID, Value: 5}})
	}
	if it := e.Iterations(); it != 102 {
		t.Errorf("Iterations = %d, want 102", it)
	}
	sum := 0
	for _, n := range e.Counts() {
		sum += n
	}
	if sum != 102 {
		t.Errorf("Counts sum = %d, want 102", sum)
	}
	st := e.Stats()
	if st.Completed != 102 || st.InFlight != 0 {
		t.Errorf("Stats = %+v, want 102 completed, 0 in flight", st)
	}
}

// TestConcurrentBatches drives the engine from several goroutines at
// once, each leasing batches under its class's features and completing
// them with a duplicate appended, so CompleteN's reused scratch and the
// replicas' shared feature vectors are reached concurrently (run it
// under -race). Every trial must be applied exactly once and every
// duplicate dropped.
func TestConcurrentBatches(t *testing.T) {
	e, err := New(testConfig(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, e, 200) // split first, so leases route to context replicas
	if n := e.ContextCount(); n < 2 {
		t.Fatalf("%d contexts after warm-up, want a split into 2", n)
	}
	before := e.Iterations()
	const workers, rounds, batch = 4, 50, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(f Features) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				trials, err := e.LeaseNFor(f, batch)
				if err != nil || len(trials) == 0 {
					t.Errorf("LeaseNFor: %d trials, %v", len(trials), err)
					return
				}
				res := make([]core.TrialResult, 0, len(trials)+1)
				for _, tr := range trials {
					res = append(res, core.TrialResult{ID: tr.ID, Value: classCost(f, tr.Algo)})
				}
				res = append(res, res[0])
				errs := e.CompleteN(res)
				for j, err := range errs[:len(trials)] {
					if err != nil {
						t.Errorf("trial %d: %v", res[j].ID, err)
					}
				}
				if last := errs[len(trials)]; !errors.Is(last, core.ErrUnknownTrial) {
					t.Errorf("duplicate of trial %d: %v, want ErrUnknownTrial", res[0].ID, last)
				}
			}
		}(append(Features(nil), []Features{cheapF, dearF}[w%2]...))
	}
	wg.Wait()
	if got, want := e.Iterations()-before, workers*rounds*batch; got != want {
		t.Fatalf("%d iterations from %d completed trials", got, want)
	}
}

// TestBestReportsReplicaConfig: on a live engine whose traffic all
// carries features, Best reports the tuned arm with the configuration
// its context's replica measured.
func TestBestReportsReplicaConfig(t *testing.T) {
	cfg := testConfig(t, "")
	cfg.Algos = []core.Algorithm{{Name: "fixed"}, {Name: "tuned", Space: param.NewSpace(param.NewRatio("alpha", 1, 10))}}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := Features{4}
	for i := 0; i < 200; i++ {
		trials, err := e.LeaseNFor(f, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range trials {
			v := 5.0
			if tr.Algo == 1 {
				v = 1 + 0.01*tr.Config[0]
			}
			if errs := e.CompleteN([]core.TrialResult{{ID: tr.ID, Value: v}}); errs[0] != nil {
				t.Fatal(errs[0])
			}
		}
	}
	if e.ContextCount() == 0 {
		t.Fatal("feature-bearing traffic created no context")
	}
	algo, best, val := e.Best()
	if algo != 1 || len(best) != 1 {
		t.Fatalf("Best = arm %d, config %v, value %v; want the tuned arm with its alpha", algo, best, val)
	}
	if want := 1 + 0.01*best[0]; val != want {
		t.Fatalf("Best value %v does not belong to config %v (cost %v)", val, best, want)
	}
}
