package core_test

import (
	"fmt"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/ctxtune"
	"repro/internal/nominal"
)

// classEngine drives a contextual engine through the crash-point
// harness with two feature classes: leases alternate between them, and
// the dear class costs a hundred times the cheap one, so the shared
// bucket splits within a few batches and cuts land on splits too.
type classEngine struct {
	*ctxtune.Engine
	n    int
	dear map[uint64]bool // leased trials of the dear class
}

func (c *classEngine) LeaseN(n int) ([]core.Trial, error) {
	c.n++
	dear := c.n%2 == 0
	f := ctxtune.Features{1}
	if dear {
		f = ctxtune.Features{100}
	}
	trs, err := c.LeaseNFor(f, n)
	for _, tr := range trs {
		c.dear[tr.ID] = dear
	}
	return trs, err
}

func (c *classEngine) CompleteN(results []core.TrialResult) []error {
	for i := range results {
		if c.dear[results[i].ID] {
			results[i].Value *= 100
		}
	}
	return c.Engine.CompleteN(results)
}

// TestContextualCrashPointsLoseNoAcknowledgedTrial is the contextual row
// of TestCrashPointsLoseNoAcknowledgedTrial: the same seeded power cuts,
// torn and clean, over a contextual engine with two feature classes.
// No cut loses an acknowledged completion, failure or context.
func TestContextualCrashPointsLoseNoAcknowledgedTrial(t *testing.T) {
	prev := checkpoint.SetSegmentBytes(4 << 10)
	t.Cleanup(func() { checkpoint.SetSegmentBytes(prev) })
	build := func(dir string) (core.DurableEngine, error) {
		e, err := ctxtune.New(ctxtune.Config{
			Algos:       core.EngineAlgos(),
			Selector:    func() nominal.Selector { return nominal.NewEpsilonGreedy(0.10) },
			Seed:        5,
			Partitioner: ctxtune.NewTree(1, 8, 1.5),
			Dir:         dir,
			Every:       10,
		})
		if err != nil {
			return nil, err
		}
		return &classEngine{Engine: e, dear: map[uint64]bool{}}, nil
	}
	for _, torn := range []bool{false, true} {
		for seed := int64(1); seed <= 8; seed++ {
			name := fmt.Sprintf("seed=%d", seed)
			if torn {
				name = fmt.Sprintf("torn/seed=%d", seed)
			}
			t.Run(name, func(t *testing.T) { core.CrashAndRebuild(t, build, seed, torn) })
		}
	}
}
