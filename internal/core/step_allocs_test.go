//go:build !race

package core

import (
	"testing"

	"repro/internal/nominal"
	"repro/internal/param"
)

// stepAlgos and stepMeasure are the single-caller cost setup: three
// arms, one of them tunable, the untunable first arm the cheapest.
func stepAlgos() []Algorithm {
	return []Algorithm{{Name: "a"}, {Name: "tunable", Space: param.NewSpace(param.NewRatio("x", 0, 10))}, {Name: "c"}}
}

func stepMeasure(algo int, cfg param.Config) float64 {
	v := float64(1 + algo)
	for _, x := range cfg {
		v += x / 10
	}
	return v
}

func newStepTuner(tb testing.TB) *Tuner {
	tu, err := NewTuner(stepAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 1, WithoutHistory())
	if err != nil {
		tb.Fatal(err)
	}
	return tu
}

// stepSink keeps the compiler from dropping the benchmarked Step.
var stepSink Record

// BenchmarkStep times one single-caller Step: ε-greedy 10% over three
// arms, history off.
func BenchmarkStep(b *testing.B) {
	tu := newStepTuner(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stepSink = tu.Step(stepMeasure)
	}
}

// TestStepAllocs pins a history-off Step at 0 allocations on average:
// the explored tunable arm's configuration copies are the only ones,
// about one Step in thirty.
func TestStepAllocs(t *testing.T) {
	tu := newStepTuner(t)
	tu.Run(1000, stepMeasure) // first use: the value timelines grow
	allocs := testing.AllocsPerRun(2000, func() { tu.Step(stepMeasure) })
	t.Logf("%.2f allocations per Step", allocs)
	if allocs != 0 {
		t.Fatalf("%.2f allocations per Step, want 0", allocs)
	}
}
