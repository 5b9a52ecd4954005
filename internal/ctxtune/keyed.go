package ctxtune

import (
	"hash/fnv"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/nominal"
	"repro/internal/search"
)

// Keyed maintains one independent two-phase tuner per application
// context named by an explicit string key (an input-size bucket, a
// data-shape class, a query category…). It is the simple, sequential
// ancestor of Engine — the application labels each iteration itself
// instead of describing the input with a feature vector — kept for
// callers that already know their contexts (extension X4 uses it for
// the alternating pattern-length sweep).
//
// The paper's formulation fixes the context K = (K_A, K_S) for the
// duration of tuning; the related work it builds on (PetaBricks'
// decision trees, Nitro's feature models) exists precisely because real
// inputs vary and the best algorithm varies with them. Keyed is the
// string-labelled online answer; Engine adds feature routing, adaptive
// partitioning, warm starts, and the concurrent lease surface on top.
type Keyed struct {
	algos    []core.Algorithm
	selector func() nominal.Selector
	factory  search.Factory
	seed     int64
	opts     []core.Option

	mu     sync.Mutex
	tuners map[string]*core.Tuner
}

// NewKeyed prepares a per-context tuner family. The selector function
// builds a fresh phase-two strategy per context (selectors are
// stateful); factory and opts are as in core.NewTuner. Each context's random
// stream is derived from the seed and the context key, so runs are
// reproducible regardless of context arrival order.
func NewKeyed(algos []core.Algorithm, selector func() nominal.Selector, factory search.Factory, seed int64, opts ...core.Option) *Keyed {
	return &Keyed{
		algos:    algos,
		selector: selector,
		factory:  factory,
		seed:     seed,
		opts:     opts,
		tuners:   make(map[string]*core.Tuner),
	}
}

// For returns the tuner for a context, creating it on first use.
func (c *Keyed) For(context string) (*core.Tuner, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.tuners[context]; ok {
		return t, nil
	}
	h := fnv.New64a()
	h.Write([]byte(context))
	t, err := core.NewTuner(c.algos, c.selector(), c.factory, c.seed^int64(h.Sum64()), c.opts...)
	if err != nil {
		return nil, err
	}
	c.tuners[context] = t
	return t, nil
}

// Contexts returns the context keys seen so far, sorted.
func (c *Keyed) Contexts() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.tuners))
	for k := range c.tuners {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Step runs one tuning iteration in the given context.
func (c *Keyed) Step(context string, m core.Measure) (core.Record, error) {
	t, err := c.For(context)
	if err != nil {
		return core.Record{}, err
	}
	return t.Step(m), nil
}
