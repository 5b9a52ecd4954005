package nominal

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/checkpoint"
)

var stateSelectorNames = []string{
	"egreedy:10", "greedygradient:10", "gradient", "optimum", "auc",
	"random", "roundrobin", "ucb1", "softmax:0.5",
}

// syntheticValue is a deterministic per-(arm, visit) measurement: arm 0
// is best, every arm improves slowly so gradient selectors see signal.
func syntheticValue(arm, visit int) float64 {
	return float64(arm+1)*10 - 0.05*float64(visit)
}

// TestSelectorStateRoundTrip: export mid-run, restore into a fresh
// Init'ed instance, and require identical selections forever after when
// both copies draw from identically seeded streams.
func TestSelectorStateRoundTrip(t *testing.T) {
	const arms = 4
	for _, name := range stateSelectorNames {
		for _, warm := range []int{0, 1, 5, 40, 200} {
			a, err := NewByName(name)
			if err != nil {
				t.Fatal(err)
			}
			a.Init(arms)
			visits := make([]int, arms)
			rng := rand.New(rand.NewSource(9))
			for i := 0; i < warm; i++ {
				arm := a.Select(rng)
				a.Report(arm, syntheticValue(arm, visits[arm]))
				visits[arm]++
			}
			data, err := a.(Stateful).Export()
			if err != nil {
				t.Fatalf("%s@%d: Export: %v", name, warm, err)
			}

			b, err := NewByName(name)
			if err != nil {
				t.Fatal(err)
			}
			b.Init(arms)
			if err := b.(Stateful).Restore(data); err != nil {
				t.Fatalf("%s@%d: Restore: %v", name, warm, err)
			}

			// Selection randomness is external; identical streams must
			// yield identical decisions.
			rngA := rand.New(rand.NewSource(77))
			rngB := rand.New(rand.NewSource(77))
			for i := 0; i < 100; i++ {
				armA, armB := a.Select(rngA), b.Select(rngB)
				if armA != armB {
					t.Fatalf("%s@%d: selection %d diverged: %d vs %d", name, warm, i, armA, armB)
				}
				v := syntheticValue(armA, visits[armA])
				visits[armA]++
				a.Report(armA, v)
				b.Report(armB, v)
			}
		}
	}
}

// TestSelectorRestoreRejectsBadState: corruption errors, never panics.
func TestSelectorRestoreRejectsBadState(t *testing.T) {
	for _, name := range stateSelectorNames {
		s, err := NewByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s.Init(3)
		st := s.(Stateful)
		if err := st.Restore([]byte(`{`)); err == nil {
			t.Errorf("%s: restoring truncated JSON succeeded", name)
		}
		if err := st.Restore([]byte(`[1,2,3]`)); err == nil {
			t.Errorf("%s: restoring a non-object succeeded", name)
		}
	}
}

// TestSelectorRestoreRejectsArmMismatch: a snapshot from a different arm
// count must be refused, not half-applied.
func TestSelectorRestoreRejectsArmMismatch(t *testing.T) {
	for _, name := range stateSelectorNames {
		a, _ := NewByName(name)
		a.Init(5)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 10; i++ {
			arm := a.Select(rng)
			a.Report(arm, float64(arm))
		}
		data, err := a.(Stateful).Export()
		if err != nil {
			t.Fatal(err)
		}
		b, _ := NewByName(name)
		b.Init(3)
		if err := b.(Stateful).Restore(data); err == nil {
			t.Errorf("%s: restoring a 5-arm snapshot into 3 arms succeeded", name)
		}
	}
}

// TestSelectorExportBeforeInitFails and restore likewise.
func TestSelectorStateBeforeInitFails(t *testing.T) {
	for _, name := range stateSelectorNames {
		s, _ := NewByName(name)
		if _, err := s.(Stateful).Export(); err == nil {
			t.Errorf("%s: Export before Init succeeded", name)
		}
		s2, _ := NewByName(name)
		if err := s2.(Stateful).Restore([]byte(`{}`)); err == nil {
			t.Errorf("%s: Restore before Init succeeded", name)
		}
	}
}

// TestHistoryTailPreservesVisitCounts: exports bound the stored samples
// per arm, but the visit counters must survive exactly — ε-greedy's
// unvisited-arm probing and UCB1's confidence terms depend on them.
func TestHistoryTailPreservesVisitCounts(t *testing.T) {
	a := NewEpsilonGreedy(0.1)
	a.Init(2)
	rng := rand.New(rand.NewSource(1))
	const runs = historyTail * 3
	for i := 0; i < runs; i++ {
		arm := a.Select(rng)
		a.Report(arm, float64(arm))
	}
	data, err := a.Export()
	if err != nil {
		t.Fatal(err)
	}
	b := NewEpsilonGreedy(0.1)
	b.Init(2)
	if err := b.Restore(data); err != nil {
		t.Fatal(err)
	}
	for arm := 0; arm < 2; arm++ {
		if got, want := b.visits(arm), a.visits(arm); got != want {
			t.Errorf("arm %d: restored %d visits, want %d", arm, got, want)
		}
		if len(b.arms[arm]) > historyTail {
			t.Errorf("arm %d: restored %d samples, tail bound is %d", arm, len(b.arms[arm]), historyTail)
		}
	}
}

// self exposes the history every selector embeds, for the reference
// encoder below.
func (h *history) self() *history { return h }

// referenceHist is the reflective form of a history's checkpoint state:
// historyState with each arm cut to its last historyTail samples.
func referenceHist(h *history) historyState {
	st := historyState{
		Arms: make([][]sampleState, len(h.arms)),
		Seen: append([]int(nil), h.seen...),
		Iter: h.iter,
		Best: checkpoint.Floats(h.best),
	}
	for i, arm := range h.arms {
		tail := arm
		if len(tail) > historyTail {
			tail = tail[len(tail)-historyTail:]
		}
		ss := make([]sampleState, len(tail))
		for j, s := range tail {
			ss[j] = sampleState{Iter: s.iter, Value: checkpoint.F(s.value)}
		}
		st.Arms[i] = ss
	}
	return st
}

// referenceExport is the json.Marshal encoding each selector's Export
// must reproduce byte for byte.
func referenceExport(sel Selector) ([]byte, error) {
	h := sel.(interface{ self() *history }).self()
	switch s := sel.(type) {
	case *RoundRobin:
		return json.Marshal(roundRobinState{Hist: referenceHist(h), Next: s.next})
	case *UCB1:
		return json.Marshal(ucb1State{Hist: referenceHist(h), Sums: checkpoint.Floats(s.sums)})
	}
	return json.Marshal(referenceHist(h))
}

// TestExportMatchesJSON: every selector's hand-encoded Export equals
// json.Marshal of its state, across fresh, short and tail-trimmed
// histories and values json cannot write as numbers.
func TestExportMatchesJSON(t *testing.T) {
	values := []float64{1, 0.5, -3, 0, math.Copysign(0, -1), 1e-7, 1e21, 123456.789,
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	for _, name := range stateSelectorNames {
		for _, warm := range []int{0, 1, 7, 40, 3 * historyTail * 4} {
			s, err := NewByName(name)
			if err != nil {
				t.Fatal(err)
			}
			s.Init(4)
			rng := rand.New(rand.NewSource(int64(warm)))
			for i := 0; i < warm; i++ {
				s.Report(s.Select(rng), values[rng.Intn(len(values))])
			}
			got, err := s.(Stateful).Export()
			if err != nil {
				t.Fatalf("%s@%d: Export: %v", name, warm, err)
			}
			want, err := referenceExport(s)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s@%d: Export wrote\n%s\njson.Marshal writes\n%s", name, warm, got, want)
			}
		}
	}
}
