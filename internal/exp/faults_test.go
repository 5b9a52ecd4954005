package exp

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/nominal"
	"repro/internal/param"
	"repro/internal/strmatch"
)

// Acceptance: with ~20% injected panic+timeout+NaN failures on one arm of
// the string matching case study, the guarded tuner completes 2000
// iterations without crashing, quarantines the faulty arm, and converges
// to the same winner as the clean (0% fault) run under the same seed.
// Every failure prints the result's Replay: the seed and the recorded
// bank both runs replayed.
func TestFaultInjectionGuardedSurvivesAndConverges(t *testing.T) {
	cfg := TestConfig()
	res := RunFaultInjection(cfg, DefaultFaultRates(), 2000)

	if !res.WinnersAgree {
		t.Errorf("guarded winner %q differs from clean winner %q; replay: %v",
			res.GuardedWinner, res.CleanWinner, res.Replay)
	}
	if res.Failures.Total < 3 {
		t.Fatalf("only %d failures recorded — injection not effective; replay: %v", res.Failures.Total, res.Replay)
	}
	if got := res.Failures.Panics + res.Failures.Timeouts + res.Failures.Invalids; got != res.Failures.Total {
		t.Errorf("failure kinds %+v do not sum to total %d; replay: %v", res.Failures, res.Failures.Total, res.Replay)
	}
	if res.Trips == 0 {
		t.Errorf("faulty arm never quarantined; replay: %v", res.Replay)
	}
	if res.FaultySelections == 0 {
		t.Errorf("faulty arm permanently excluded; replay: %v", res.Replay)
	}
	if res.FaultySelections > 2000/4 {
		t.Errorf("faulty arm still selected %d/2000 times — quarantine ineffective; replay: %v", res.FaultySelections, res.Replay)
	}
	// The rendered table must mention the essentials.
	var sb strings.Builder
	res.RenderFigureA10(&sb)
	for _, want := range []string{"fault injection", res.CleanWinner, "quarantine"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("A10 table missing %q; replay: %v", want, res.Replay)
		}
	}
}

// Acceptance: the same scenario without the guard kills the loop — the
// injected panic propagates out of Tuner.Run.
func TestFaultInjectionUnguardedPanics(t *testing.T) {
	cfg := TestConfig()
	text := corpus.Bible(cfg.CorpusSize, cfg.Seed)
	pattern := []byte(cfg.Pattern)
	names := strmatch.Names()
	matchers := make([]strmatch.Matcher, len(names))
	for i, n := range names {
		m, err := strmatch.New(n)
		if err != nil {
			t.Fatal(err)
		}
		matchers[i] = m
	}
	measure := func(algo int, _ param.Config) float64 {
		return timeIt(func() {
			strmatch.Run(matchers[algo], pattern, text, cfg.Workers)
		})
	}
	// Inject only panics (no timeouts: without a guard a sleeping arm
	// would just slow the test down, and NaN would poison rather than
	// crash) at the same combined 20% rate on arm 0, which ε-Greedy's
	// deterministic initialization visits first.
	faulty := InjectFaults(measure, 0, FaultRates{Panic: 0.2}, 0, cfg.Seed+101)

	defer func() {
		if r := recover(); r == nil {
			t.Fatal("unguarded tuning loop survived injected panics")
		}
	}()
	tuner, err := core.NewTuner(matcherAlgorithms(), nominal.NewEpsilonGreedy(0.10), nil, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	tuner.Run(2000, faulty) // must panic long before completing
}
