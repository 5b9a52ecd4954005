package nominal

import (
	"math"
	"math/rand"
	"testing"
)

// decayableSet returns one instance of every selector, all Decayable.
func decayableSet() []Decayable {
	return []Decayable{
		NewEpsilonGreedy(0.10),
		NewGradientWeighted(),
		NewOptimumWeighted(),
		NewSlidingWindowAUC(),
		NewUniformRandom(),
		NewRoundRobin(),
		NewSoftmax(0.1),
		NewUCB1(),
		NewGreedyGradient(0.10),
	}
}

func TestDecayShrinksHistory(t *testing.T) {
	for _, s := range decayableSet() {
		s.Init(3)
		r := rand.New(rand.NewSource(1))
		for i := 0; i < 60; i++ {
			arm := s.Select(r)
			s.Report(arm, 1+float64(arm))
		}
		before := visitsOf(s)
		s.Decay(0.25)
		after := visitsOf(s)
		for i := range after {
			if after[i] > before[i] {
				t.Errorf("%s: arm %d visits grew %d -> %d", s.Name(), i, before[i], after[i])
			}
			want := int(float64(before[i]) * 0.25)
			// Retained samples may floor the count upward by a few.
			if after[i] > want+historyTail/4 {
				t.Errorf("%s: arm %d visits %d, want about %d", s.Name(), i, after[i], want)
			}
		}
		// The selector must remain operational after the discount.
		for i := 0; i < 30; i++ {
			arm := s.Select(r)
			if arm < 0 || arm >= 3 {
				t.Fatalf("%s: post-decay Select returned %d", s.Name(), arm)
			}
			s.Report(arm, 2)
		}
	}
}

// visitsOf snapshots the per-arm visit counts.
func visitsOf(s Decayable) []int {
	h := historyOf(s)
	out := make([]int, h.n())
	for i := range out {
		out[i] = h.visits(i)
	}
	return out
}

// historyOf digs out the embedded history of any package selector.
func historyOf(s Decayable) *history {
	switch v := s.(type) {
	case *EpsilonGreedy:
		return &v.history
	case *GradientWeighted:
		return &v.history
	case *OptimumWeighted:
		return &v.history
	case *SlidingWindowAUC:
		return &v.history
	case *UniformRandom:
		return &v.history
	case *RoundRobin:
		return &v.history
	case *Softmax:
		return &v.history
	case *UCB1:
		return &v.history
	case *GreedyGradient:
		return &v.history
	}
	panic("unknown selector")
}

func TestDecayDethronesStaleIncumbent(t *testing.T) {
	e := NewEpsilonGreedy(0) // pure exploitation: incumbent rules forever
	e.Init(2)
	// Arm 0 once recorded a spectacular 0.1; since the (unobserved)
	// context change it measures 10, while arm 1 measures 1.
	e.Report(0, 0.1)
	for i := 0; i < 30; i++ {
		e.Report(0, 10)
		e.Report(1, 1)
	}
	r := rand.New(rand.NewSource(1))
	if got := e.Select(r); got != 0 {
		t.Fatalf("pre-decay incumbent should be arm 0 (stale record), got %d", got)
	}
	// Keep only the recent quarter: the 0.1 record (oldest sample) falls
	// out of every tail and arm 1 takes over.
	e.Decay(0.25)
	if got := e.Select(r); got != 1 {
		t.Fatalf("post-decay incumbent should be arm 1, got %d", got)
	}
}

func TestDecayToZeroReprobes(t *testing.T) {
	e := NewEpsilonGreedy(0)
	e.Init(3)
	for arm := 0; arm < 3; arm++ {
		for i := 0; i < 10; i++ {
			e.Report(arm, float64(1+arm))
		}
	}
	e.Decay(0)
	r := rand.New(rand.NewSource(1))
	// All evidence gone: the init round restarts (unvisited arms first,
	// in deterministic order).
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		arm := e.Select(r)
		if seen[arm] {
			t.Fatalf("arm %d probed twice during re-init round", arm)
		}
		seen[arm] = true
		e.Report(arm, 5)
	}
}

func TestDecayNoOpAtOne(t *testing.T) {
	e := NewEpsilonGreedy(0.1)
	e.Init(2)
	for i := 0; i < 20; i++ {
		e.Report(i%2, float64(i))
	}
	before, err := e.Export()
	if err != nil {
		t.Fatal(err)
	}
	e.Decay(1)
	e.Decay(math.NaN())
	after, err := e.Export()
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("Decay(1) / Decay(NaN) changed state")
	}
}

func TestDecayPreservesCheckpointInvariant(t *testing.T) {
	// After any decay, Export → Restore must succeed: stored samples per
	// arm never exceed the visit count.
	for _, keep := range []float64{0, 0.1, 0.25, 0.5, 0.9} {
		fresh := decayableSet()
		for i, s := range decayableSet() {
			s.Init(4)
			r := rand.New(rand.NewSource(7))
			for i := 0; i < 200; i++ {
				arm := s.Select(r)
				s.Report(arm, 1+r.Float64())
			}
			s.Decay(keep)
			st, err := s.(Stateful).Export()
			if err != nil {
				t.Fatalf("%s keep=%g: Export: %v", s.Name(), keep, err)
			}
			fresh[i].Init(4)
			if err := fresh[i].(Stateful).Restore(st); err != nil {
				t.Fatalf("%s keep=%g: Restore after decay: %v", s.Name(), keep, err)
			}
		}
	}
}

func TestUCB1DecayKeepsMeans(t *testing.T) {
	u := NewUCB1()
	u.Init(2)
	for i := 0; i < 40; i++ {
		u.Report(0, 2)
		u.Report(1, 4)
	}
	u.Decay(0.5)
	for i := 0; i < 2; i++ {
		if n := u.visits(i); n > 0 {
			mean := u.sums[i] / float64(n)
			want := float64(2 * (i + 1))
			if math.Abs(mean-want) > 1e-9 {
				t.Fatalf("arm %d mean %.3f after decay, want %.3f", i, mean, want)
			}
		}
	}
	u.Decay(0)
	for i := 0; i < 2; i++ {
		if u.sums[i] != 0 || u.visits(i) != 0 {
			t.Fatalf("arm %d not fully reset: sums=%g visits=%d", i, u.sums[i], u.visits(i))
		}
	}
	// A fully decayed UCB1 re-probes every arm like a fresh one.
	r := rand.New(rand.NewSource(1))
	if got := u.Select(r); got != 0 {
		t.Fatalf("first post-reset probe should be arm 0, got %d", got)
	}
}
