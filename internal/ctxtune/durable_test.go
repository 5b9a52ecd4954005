package ctxtune

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/checkpoint/crashtest"
	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/nominal"
	"repro/internal/param"
)

// copyDir copies the files of dir into a fresh directory: the state a
// power cut right now would leave, since every engine operation syncs
// what it journaled before it returns.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	out := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(out, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// step leases one trial for f and completes it with its class cost, or,
// when fail, fails it.
func step(t *testing.T, e *Engine, f Features, fail bool) {
	t.Helper()
	trials, err := e.LeaseNFor(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	var errs []error
	if fail {
		errs = e.FailN([]core.TrialFailure{{ID: trials[0].ID, Failure: guard.Failure{Kind: guard.Timeout}}})
	} else {
		errs = e.CompleteN([]core.TrialResult{{ID: trials[0].ID, Value: classCost(f, trials[0].Algo)}})
	}
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
}

// resumeConfig returns cfg with testConfig's fresh partitioner and
// plain selector factory, for a second engine over cfg's directory.
func resumeConfig(t *testing.T, cfg Config) Config {
	base := testConfig(t, "")
	cfg.Partitioner, cfg.Selector = base.Partitioner, base.Selector
	return cfg
}

// selectors makes cfg's selector factory keep every selector it builds,
// in build order: the global engine's first, then one per replica birth.
// Births are serialized under the global engine's mutex, and the engine
// lists its replicas in birth order, so the k-th replica's selector is
// the (k+1)-th built.
type selectors []nominal.Selector

func recordSelectors(cfg *Config) *selectors {
	made := new(selectors)
	mk := cfg.Selector
	cfg.Selector = func() nominal.Selector {
		s := mk()
		*made = append(*made, s)
		return s
	}
	return made
}

// states returns the exported selector state of the global engine (as
// GlobalContext) and of each of e's replicas, by context. e must be the
// engine built from the config the selectors were recorded from.
func (made selectors) states(t *testing.T, e *Engine) map[string][]byte {
	t.Helper()
	export := func(s nominal.Selector) []byte {
		b, err := s.(nominal.Stateful).Export()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	reps := e.snapshotReplicas()
	if len(made) != 1+len(reps) {
		t.Fatalf("%d selectors built for %d replicas", len(made), len(reps))
	}
	out := map[string][]byte{GlobalContext: export(made[0])}
	for k, r := range reps {
		out[r.id] = export(made[k+1])
	}
	return out
}

// TestCrashResumeMatchesLiveEngine crashes the engine at seeded
// iterations of a two-class stream with failures — copying its
// directory, which is what a power cut after the last acknowledged trial
// leaves — and resumes a second engine from each copy. The resumed
// engine's Iterations, Counts, ContextCount, per-class BestFor, contexts
// and every selector's state, global and per replica, must equal the
// live engine's.
func TestCrashResumeMatchesLiveEngine(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t, dir)
	cfg.Every = 37 // snapshots land between the crash points too
	liveSel := recordSelectors(&cfg)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	crashes := map[int]bool{}
	for len(crashes) < 6 {
		crashes[1+rng.Intn(400)] = true
	}
	for i := 1; i <= 400; i++ {
		f := cheapF
		if rng.Intn(2) == 1 {
			f = dearF
		}
		step(t, e, f, rng.Intn(10) == 0)
		if !crashes[i] {
			continue
		}
		rcfg := resumeConfig(t, cfg)
		rcfg.Dir = copyDir(t, dir)
		resumedSel := recordSelectors(&rcfg)
		r, err := New(rcfg)
		if err != nil {
			t.Fatalf("resume after iteration %d: %v", i, err)
		}
		if got, want := r.Iterations(), e.Iterations(); got != want {
			t.Errorf("crash at %d: resumed Iterations %d, live %d", i, got, want)
		}
		if got, want := r.Counts(), e.Counts(); !slices.Equal(got, want) {
			t.Errorf("crash at %d: resumed Counts %v, live %v", i, got, want)
		}
		if got, want := r.ContextCount(), e.ContextCount(); got != want {
			t.Errorf("crash at %d: resumed ContextCount %d, live %d", i, got, want)
		}
		if got, want := r.Contexts(), e.Contexts(); !slices.Equal(got, want) {
			t.Errorf("crash at %d: resumed contexts %v, live %v", i, got, want)
		}
		for _, f := range []Features{cheapF, dearF} {
			ga, gc, gv := r.BestFor(f)
			wa, wc, wv := e.BestFor(f)
			if ga != wa || !gc.Equal(wc) || gv != wv {
				t.Errorf("crash at %d: resumed BestFor(%v) = (%d, %v, %g), live (%d, %v, %g)", i, f, ga, gc, gv, wa, wc, wv)
			}
		}
		live, resumed := liveSel.states(t, e), resumedSel.states(t, r)
		for id, want := range live {
			if got := resumed[id]; !bytes.Equal(got, want) {
				t.Errorf("crash at %d: context %s selector\nresumed %s\nlive    %s", i, id, got, want)
			}
		}
	}
	if e.ContextCount() < 2 {
		t.Fatalf("%d contexts: the stream never split", e.ContextCount())
	}
}

// TestConcurrentDurableResume drives a durable engine from several
// goroutines at once — two per class, batches of completions and
// failures — while another checkpoints it, with snapshots due every few
// records, so replica operations, splits and snapshots interleave (run
// it under -race). An engine resumed from the directory afterwards
// equals the live one: its records and snapshots form one consistent
// log.
func TestConcurrentDurableResume(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	cfg.Every = 7
	liveSel := recordSelectors(&cfg)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const workers, rounds, batch = 4, 60, 4
	var wg sync.WaitGroup
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
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f := []Features{cheapF, dearF}[w%2]
			for i := 0; i < rounds; i++ {
				trials, err := e.LeaseNFor(f, batch)
				if err != nil {
					t.Error(err)
					return
				}
				res := make([]core.TrialResult, 0, len(trials))
				var fails []core.TrialFailure
				for j, tr := range trials {
					if (i+j)%9 == 0 {
						fails = append(fails, core.TrialFailure{ID: tr.ID, Failure: guard.Failure{Kind: guard.Invalid}})
						continue
					}
					res = append(res, core.TrialResult{ID: tr.ID, Value: classCost(f, tr.Algo)})
				}
				for _, err := range append(e.CompleteN(res), e.FailN(fails)...) {
					if err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	<-done
	if got, want := e.Iterations(), workers*rounds*batch; got != want {
		t.Fatalf("%d iterations from %d finished trials", got, want)
	}
	rcfg := resumeConfig(t, cfg)
	resumedSel := recordSelectors(&rcfg)
	r, err := New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.Counts(), e.Counts(); !slices.Equal(got, want) {
		t.Errorf("resumed Counts %v, live %v", got, want)
	}
	if got, want := r.Contexts(), e.Contexts(); !slices.Equal(got, want) {
		t.Errorf("resumed contexts %v, live %v", got, want)
	}
	live, resumed := liveSel.states(t, e), resumedSel.states(t, r)
	for id, want := range live {
		if got := resumed[id]; !bytes.Equal(got, want) {
			t.Errorf("context %s selector\nresumed %s\nlive    %s", id, got, want)
		}
	}
}

// TestResumedBestReportsReplicaConfig: an engine resumed after a kill
// reports the tuned arm's best with the configuration its context's
// replica measured — the replica's own best comes back with it — and
// not a configuration-less copy of the value.
func TestResumedBestReportsReplicaConfig(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	cfg.Algos = []core.Algorithm{{Name: "fixed"}, {Name: "tuned", Space: param.NewSpace(param.NewRatio("alpha", 1, 10))}}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := Features{4}
	for i := 0; i < 120; i++ {
		trials, err := e.LeaseNFor(f, 1)
		if err != nil {
			t.Fatal(err)
		}
		v := 5.0
		if trials[0].Algo == 1 {
			v = 1 + 0.01*trials[0].Config[0]
		}
		if errs := e.CompleteN([]core.TrialResult{{ID: trials[0].ID, Value: v}}); errs[0] != nil {
			t.Fatal(errs[0])
		}
	}
	// No Checkpoint: resume from what the kill left.
	r, err := New(resumeConfig(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	algo, best, val := r.Best()
	if algo != 1 || len(best) != 1 {
		t.Fatalf("resumed Best = arm %d, config %v, value %v; want the tuned arm with its alpha", algo, best, val)
	}
	if want := 1 + 0.01*best[0]; val != want {
		t.Fatalf("resumed Best value %v does not belong to config %v (cost %v)", val, best, want)
	}
	wa, wc, wv := e.Best()
	if algo != wa || !best.Equal(wc) || val != wv {
		t.Fatalf("resumed Best (%d, %v, %g), live (%d, %v, %g)", algo, best, val, wa, wc, wv)
	}
}

// TestResumeKeepsFailedContextualTrials: failed contextual trials are
// records of the log like completions, so a resumed engine counts them
// in Iterations, Counts and FailureStats as the live engine did.
func TestResumeKeepsFailedContextualTrials(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		f := cheapF
		if i%2 == 1 {
			f = dearF
		}
		step(t, e, f, i%7 == 0)
	}
	if e.FailureStats().Total == 0 {
		t.Fatal("setup failed: no contextual failures")
	}
	r, err := New(resumeConfig(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.Iterations(), e.Iterations(); got != want {
		t.Errorf("resumed Iterations %d, live %d", got, want)
	}
	if got, want := r.Counts(), e.Counts(); !slices.Equal(got, want) {
		t.Errorf("resumed Counts %v, live %v", got, want)
	}
	if got, want := r.FailureStats().Total, e.FailureStats().Total; got != want {
		t.Errorf("resumed failures %d, live %d", got, want)
	}
}

// TestContextualFailNSyncsOnce: eight contextual failures in one FailN
// are one operation of their replica — one journal write and one sync —
// and every one of them survives a power cut right after.
func TestContextualFailNSyncsOnce(t *testing.T) {
	disk := crashtest.Install(t)
	dir := t.TempDir()
	cfg := testConfig(t, dir)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	step(t, e, cheapF, false) // the context's birth, out of the count
	trials, err := e.LeaseNFor(cheapF, 8)
	if err != nil || len(trials) != 8 {
		t.Fatalf("leased %d of 8: %v", len(trials), err)
	}
	fails := make([]core.TrialFailure, len(trials))
	for i, tr := range trials {
		fails[i] = core.TrialFailure{ID: tr.ID, Failure: guard.Failure{Kind: guard.Panic, Err: errors.New("boom")}}
	}
	syncs, writes := disk.Syncs(), disk.Writes()
	for i, err := range e.FailN(fails) {
		if err != nil {
			t.Fatalf("failure %d: %v", i, err)
		}
	}
	if got := disk.Syncs() - syncs; got != 1 {
		t.Errorf("FailN of 8 contextual failures took %d syncs, want 1", got)
	}
	if got := disk.Writes() - writes; got != 1 {
		t.Errorf("FailN of 8 contextual failures took %d writes, want 1", got)
	}
	want := e.Counts()
	if err := disk.PowerLoss(); err != nil {
		t.Fatal(err)
	}
	r, err := New(resumeConfig(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Counts(); !slices.Equal(got, want) {
		t.Errorf("counts after the power cut %v, want %v", got, want)
	}
	if got := r.FailureStats().Panics; got != 8 {
		t.Errorf("%d panics after the power cut, want 8", got)
	}
}

// TestLoadRefusesEarlierContextLayout: a directory holding any entry of
// the earlier contextual layout fails every build path with
// checkpoint.ErrContextLayout naming the entry, and keeps its files.
func TestLoadRefusesEarlierContextLayout(t *testing.T) {
	for _, name := range []string{"global", "splits.jsonl", "contexts.json"} {
		dir := t.TempDir()
		path := filepath.Join(dir, name)
		if name == "global" {
			if err := os.Mkdir(path, 0o755); err != nil {
				t.Fatal(err)
			}
		} else if err := os.WriteFile(path, []byte("{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if !core.HasCheckpoint(dir) {
			t.Errorf("%s: HasCheckpoint false", name)
		}
		_, err := New(testConfig(t, dir))
		if !errors.Is(err, checkpoint.ErrContextLayout) || !bytes.Contains([]byte(err.Error()), []byte(name)) {
			t.Errorf("%s: New: %v, want the earlier-layout error naming it", name, err)
		}
		if _, err := core.NewTuner(testConfig(t, "").Algos, testConfig(t, "").Selector(), nil, 1, core.WithCheckpoint(dir, 10)); !errors.Is(err, checkpoint.ErrContextLayout) {
			t.Errorf("%s: core.NewTuner: %v, want the earlier-layout error", name, err)
		}
		if _, err := os.Stat(path); err != nil {
			t.Errorf("%s gone after the refusal: %v", name, err)
		}
		if segs := checkpoint.Segments(dir); len(segs) != 0 {
			t.Errorf("%s: refused build wrote segments %v", name, segs)
		}
	}
}

// TestResumeIssuesFreshTrialIDs: a resumed engine issues contextual trial
// IDs above every journaled one, so a worker's late completion of a
// lease from before the crash never lands on a fresh trial: it is
// refused as unknown, and the fresh trials complete as their own.
func TestResumeIssuesFreshTrialIDs(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := e.LeaseNFor(cheapF, 1)
	if err != nil {
		t.Fatal(err)
	}
	step(t, e, cheapF, false) // journals a trial leased after the stale one
	r, err := New(resumeConfig(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := r.LeaseNFor(cheapF, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range fresh {
		if tr.ID <= stale[0].ID {
			t.Fatalf("resumed engine issued ID %d, not above the stale lease's %d", tr.ID, stale[0].ID)
		}
	}
	before := r.Iterations()
	if errs := r.CompleteN([]core.TrialResult{{ID: stale[0].ID, Value: 1}}); !errors.Is(errs[0], core.ErrUnknownTrial) {
		t.Fatalf("late completion of a pre-crash lease: %v, want ErrUnknownTrial", errs[0])
	}
	if got := r.Iterations(); got != before {
		t.Fatalf("late completion counted: %d iterations, want %d", got, before)
	}
	res := make([]core.TrialResult, len(fresh))
	for i, tr := range fresh {
		res[i] = core.TrialResult{ID: tr.ID, Value: classCost(cheapF, tr.Algo)}
	}
	for i, err := range r.CompleteN(res) {
		if err != nil {
			t.Fatalf("fresh trial %d: %v", i, err)
		}
	}
}
