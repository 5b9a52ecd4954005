package tenant

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ctxtune"
	"repro/internal/guard"
	"repro/internal/nominal"
)

// TestSpecHash: a flat spec hashes as its EngineSpec always has, so
// existing tenant directories keep resuming; the contexts block is part
// of the tuning semantics, so adding or changing it on a registered
// tenant is refused, while its explicit defaults equal its zero values.
func TestSpecHash(t *testing.T) {
	names := []string{"sleep-steady", "sleep-tuned", "sleep-laggard"}
	flat := sleepSpec("a")
	if got, want := flat.hash(names), flat.Engine.Hash(names, DefaultSelector); got != want {
		t.Fatalf("flat spec hashes to %08x, its EngineSpec to %08x", got, want)
	}
	buf, err := json.Marshal(flat)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(buf), "contexts") {
		t.Fatalf("flat spec serializes a contexts block: %s", buf)
	}
	zero, explicit := flat, flat
	zero.Contexts = &Contexts{}
	explicit.Contexts = &Contexts{Buckets: ctxtune.DefaultBuckets, SplitMin: ctxtune.DefaultMinSamples}
	if zero.hash(names) != explicit.hash(names) {
		t.Fatal("contexts block with explicit defaults hashes differently from its zero value")
	}

	r, err := NewRegistry(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Register(flat); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(zero); err == nil {
		t.Fatal("adding a contexts block to a registered flat tenant accepted")
	}
	if err := r.Register(ctxSpec("b")); err != nil {
		t.Fatal(err)
	}
	for _, c := range []Contexts{{Buckets: 2, SplitMin: 8}, {Buckets: 1, SplitMin: 9}} {
		changed := ctxSpec("b")
		changed.Contexts = &c
		if err := r.Register(changed); err == nil {
			t.Fatalf("contexts block changed to %+v accepted", c)
		}
	}
	if err := r.Register(sleepSpec("b")); err == nil {
		t.Fatal("removing the contexts block of a registered tenant accepted")
	}
	if err := r.Register(ctxSpec("b")); err != nil {
		t.Fatalf("identical contextual re-register: %v", err)
	}
}

// TestContextualBuildParity: the spec-built contextual engine is the
// engine atune-serve -contextual hand-built before contextual routing
// became a spec field — windowed ε-greedy (window 25), NewTree(B, S, 0),
// the flags' engine options and the same directory layout — so a
// seeded stream of leases and completions gets identical decisions and
// totals from both, and an existing -contextual directory resumes.
func TestContextualBuildParity(t *testing.T) {
	algos, err := BuiltinRoster("strmatch")
	if err != nil {
		t.Fatal(err)
	}
	const eps, seed, buckets, splitMin, every = 10.0, 3, 2, 16, 20
	ttl := 30 * time.Second
	handBuild := func(dir string) *ctxtune.Engine {
		t.Helper()
		e, err := ctxtune.New(ctxtune.Config{
			Algos: algos,
			Selector: func() nominal.Selector {
				return &nominal.EpsilonGreedy{Eps: eps / 100, RecencyWindow: 25}
			},
			Seed:        seed,
			Partitioner: ctxtune.NewTree(buckets, splitMin, 0),
			Dir:         dir,
			Every:       every,
			Opts: []core.Option{
				core.WithLeaseTimeout(ttl),
				core.WithMaxInFlight(64),
				core.WithDriftWatchdog(core.DefaultDriftConfig()),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	handDir, specDir := t.TempDir(), t.TempDir()
	hand := handBuild(handDir)
	spec := Spec{
		Name: DefaultName, Workload: "strmatch", Selector: fmt.Sprintf("egreedy:%g", eps),
		Engine: core.EngineSpec{
			Seed: seed, LeaseTimeoutMS: ttl.Milliseconds(), MaxInFlight: 64, Drift: true, SnapshotEvery: every,
		},
		Contexts: &Contexts{Buckets: buckets, SplitMin: splitMin},
	}
	built, resumed, err := spec.Build(algos, nil, specDir)
	if err != nil || resumed {
		t.Fatalf("spec build: resumed %v, %v", resumed, err)
	}
	eng, ok := built.(*ctxtune.Engine)
	if !ok {
		t.Fatalf("contextual spec built a %T", built)
	}

	// Three input classes, a third of the leases feature-less; batches
	// of 1–3 completed in a shuffled order, a few failed.
	rng := rand.New(rand.NewSource(11))
	feats := []ctxtune.Features{nil, {4}, {27}, {4096}}
	for round := 0; round < 600; round++ {
		f := feats[rng.Intn(len(feats))]
		n := 1 + rng.Intn(3)
		a, errA := hand.LeaseNFor(f, n)
		b, errB := eng.LeaseNFor(f, n)
		if errA != nil || errB != nil || len(a) != len(b) {
			t.Fatalf("round %d: leased %d/%d, %v/%v", round, len(a), len(b), errA, errB)
		}
		var resA, resB []core.TrialResult
		for _, i := range rng.Perm(len(a)) {
			if a[i].ID != b[i].ID || a[i].Algo != b[i].Algo || !a[i].Config.Equal(b[i].Config) {
				t.Fatalf("round %d: lease %d differs: %+v vs %+v", round, i, a[i], b[i])
			}
			if rng.Intn(20) == 0 {
				fail := []core.TrialFailure{{ID: a[i].ID, Failure: guard.Failure{Kind: guard.Timeout}}}
				hand.FailN(fail)
				eng.FailN(fail)
				continue
			}
			cost := float64(1+a[i].Algo) * (1 + rng.Float64())
			if len(f) > 0 && f[0] > 100 {
				cost = 100 * float64(len(algos)-a[i].Algo)
			}
			resA = append(resA, core.TrialResult{ID: a[i].ID, Value: cost})
			resB = append(resB, core.TrialResult{ID: b[i].ID, Value: cost})
		}
		hand.CompleteN(resA)
		eng.CompleteN(resB)
	}
	if got, want := eng.Iterations(), hand.Iterations(); got != want {
		t.Errorf("iterations %d, hand-built %d", got, want)
	}
	if got, want := eng.Counts(), hand.Counts(); !slices.Equal(got, want) {
		t.Errorf("counts %v, hand-built %v", got, want)
	}
	algoA, cfgA, valA := hand.Best()
	algoB, cfgB, valB := eng.Best()
	if algoA != algoB || !cfgA.Equal(cfgB) || valA != valB {
		t.Errorf("best (%d, %v, %g), hand-built (%d, %v, %g)", algoB, cfgB, valB, algoA, cfgA, valA)
	}
	if got, want := eng.ContextCount(), hand.ContextCount(); got != want || got < 2 {
		t.Errorf("%d contexts, hand-built %d (want at least 2)", got, want)
	}

	// Both checkpoint into the same layout, and the spec build resumes
	// the hand-built engine's directory as the hand-built engine does.
	for _, e := range []*ctxtune.Engine{hand, eng} {
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := dirNames(t, specDir), dirNames(t, handDir); !slices.Equal(got, want) {
		t.Errorf("spec build wrote %v, hand-built %v", got, want)
	}
	copyDir := t.TempDir()
	copyTree(t, handDir, copyDir)
	handAgain := handBuild(copyDir)
	again, resumed, err := spec.Build(algos, nil, handDir)
	if err != nil || !resumed {
		t.Fatalf("rebuild over the hand-built directory: resumed %v, %v", resumed, err)
	}
	if got, want := again.Iterations(), handAgain.Iterations(); got != want {
		t.Errorf("resumed at %d iterations, hand-built resume at %d", got, want)
	}
	if got, want := again.Counts(), handAgain.Counts(); !slices.Equal(got, want) {
		t.Errorf("resumed counts %v, hand-built resume %v", got, want)
	}
	if got, want := again.(*ctxtune.Engine).ContextCount(), hand.ContextCount(); got != want || handAgain.ContextCount() != want {
		t.Errorf("resumed %d contexts, hand-built resume %d, live engine had %d", got, handAgain.ContextCount(), want)
	}
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestRediscoverySkipsEmptySpec: spec.json is written without an fsync,
// so a power cut soon after registration can leave it empty. The
// registry then skips that directory instead of refusing every tenant;
// registering the tenant again rewrites the spec and resumes its ckpt/.
// A spec that is not empty but does not decode still fails loudly.
func TestRediscoverySkipsEmptySpec(t *testing.T) {
	root := t.TempDir()
	r, err := NewRegistry(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"alpha", "beta"} {
		if err := r.Register(sleepSpec(n)); err != nil {
			t.Fatal(err)
		}
	}
	drive(t, r, "alpha", 12)
	if _, err := r.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	specPath := filepath.Join(root, "alpha", "spec.json")
	if err := os.WriteFile(specPath, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	r2, err := NewRegistry(Config{Root: root})
	if err != nil {
		t.Fatalf("empty spec.json refused the registry: %v", err)
	}
	if names := r2.Names(); !slices.Equal(names, []string{"beta"}) {
		t.Fatalf("rediscovered %v, want [beta]", names)
	}
	if err := r2.Register(sleepSpec("alpha")); err != nil {
		t.Fatal(err)
	}
	eng, _, release, err := r2.Acquire("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Iterations(); got != 12 {
		t.Fatalf("re-registered alpha resumed at %d iterations, want 12", got)
	}
	release()
	if data, err := os.ReadFile(specPath); err != nil || len(data) == 0 {
		t.Fatalf("re-registration left spec.json %q, %v", data, err)
	}

	if err := os.WriteFile(specPath, []byte("{\"name\":"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRegistry(Config{Root: root}); err == nil || !strings.Contains(err.Error(), "decode spec") {
		t.Fatalf("partial spec.json: %v, want a decode error", err)
	}
}
