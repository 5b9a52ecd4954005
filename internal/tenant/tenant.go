// Package tenant turns "one process = one engine" into a registry of
// named tuning problems, and is what every tuned.Server serves. Each
// tenant is a serialized Spec (core.EngineSpec plus a workload roster, a
// selector name and, for a contextual tenant, a Contexts block) with its
// own checkpoint directory, session epoch, and drift/calibration state.
// Spec.Build is the one way a served engine is made: a flat
// core.Tuner, or a ctxtune.Engine that tunes each input class
// on its own when Contexts is set. The registry owns the engine
// lifecycle — create, lazy warm-restart from checkpoint, LRU spill when
// too many tenants are resident, and checkpoint-all on drain. NewSingle
// wraps one pre-built engine as a registry whose only tenant is
// "default", so a one-problem server is just a registry of one. The
// server in internal/tuned routes each connection to a tenant by the
// name in its Hello handshake; every request is one call on the
// session's tenant engine.
package tenant

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"regexp"
	"time"

	"repro/internal/core"
	"repro/internal/ctxtune"
	"repro/internal/nominal"
	"repro/internal/param"
	"repro/internal/search"
	"repro/internal/strmatch"
)

// DefaultName is the tenant a session with no Hello.Tenant lands on.
const DefaultName = "default"

// DefaultSelector is the selector spec a tenant with none gets.
const DefaultSelector = "egreedy:10" // ε = 10%, the paper's default exploration rate

// nameRE bounds tenant names to path-safe tokens: each tenant owns a
// directory named after it, so separators, dots-only names and empty
// strings must never reach the filesystem.
var nameRE = regexp.MustCompile(`^[a-zA-Z0-9_][a-zA-Z0-9._-]{0,63}$`)

// ValidName reports whether name is usable as a tenant name (and hence
// as its directory name under the registry root).
func ValidName(name string) bool { return nameRE.MatchString(name) }

// Spec is one tenant's full serialized configuration: everything needed
// to rebuild its engine in a fresh process. Workload names the
// algorithm roster (resolved through the registry's RosterFunc),
// Selector is a nominal.NewByName spec, Engine carries the engine-level
// option set, and Contexts, when present, makes the tenant contextual.
// The registry persists the Spec as spec.json in the tenant's
// directory, next to its checkpoints, so a restarted server rediscovers
// its tenants from disk alone.
type Spec struct {
	Name     string          `json:"name"`
	Workload string          `json:"workload"`
	Selector string          `json:"selector,omitempty"` // "" = DefaultSelector
	Engine   core.EngineSpec `json:"engine"`
	Contexts *Contexts       `json:"contexts,omitempty"` // nil = one context
}

// Contexts is the serialized partitioner of a contextual tenant: leases
// carrying a feature vector are hashed into Buckets contexts, and a
// context splits once SplitMin samples show its cost distribution
// bimodal across a feature threshold (ctxtune.NewTree; zero takes the
// package default).
type Contexts struct {
	Buckets  int `json:"buckets"`
	SplitMin int `json:"split_min"`
}

// recencyWindow is the ε-greedy window of a contextual engine's
// selectors: a cold context is warm-started from the global fold, and
// when the context disagrees with it the imported evidence must be able
// to age out of the window.
const recencyWindow = 25

func (s Spec) selector() string {
	if s.Selector == "" {
		return DefaultSelector
	}
	return s.Selector
}

// hash pins the spec's tuning semantics over a roster: EngineSpec.Hash
// for a flat spec, extended by the Contexts block with its defaults
// resolved for a contextual one.
func (s Spec) hash(names []string) uint32 {
	h := s.Engine.Hash(names, s.selector())
	if c := s.Contexts; c != nil {
		canon := *c
		if canon.Buckets <= 0 {
			canon.Buckets = ctxtune.DefaultBuckets
		}
		if canon.SplitMin <= 0 {
			canon.SplitMin = ctxtune.DefaultMinSamples
		}
		buf, _ := json.Marshal(canon) // struct of ints: cannot fail
		h = crc32.Update(h, crc32.IEEETable, buf)
	}
	return h
}

// Build constructs the spec's engine over algos: a core.Tuner,
// or with Contexts a ctxtune.Engine whose global engine and per-context
// replicas all take the spec's seed, selector and engine options. A
// non-empty dir makes the engine durable there, and resumed reports
// whether the build resumed a previous engine's state from it.
func (s Spec) Build(algos []core.Algorithm, factory search.Factory, dir string) (eng Engine, resumed bool, err error) {
	name := s.selector()
	sel, err := nominal.NewByName(name)
	if err != nil {
		return nil, false, err
	}
	resumed = core.HasCheckpoint(dir)
	if s.Contexts == nil {
		flat, err := s.Engine.Build(algos, sel, factory, dir)
		if err != nil {
			return nil, false, err
		}
		return flat, resumed, nil
	}
	ceng, err := ctxtune.New(ctxtune.Config{
		Algos: algos,
		Selector: func() nominal.Selector {
			sel, _ := nominal.NewByName(name) // parsed above
			if eg, ok := sel.(*nominal.EpsilonGreedy); ok {
				eg.RecencyWindow = recencyWindow
			}
			return sel
		},
		Factory:     factory,
		Seed:        s.Engine.Seed,
		Partitioner: ctxtune.NewTree(s.Contexts.Buckets, s.Contexts.SplitMin, 0),
		Dir:         dir,
		Every:       s.Engine.SnapshotEvery,
		Opts:        s.Engine.Options(""),
	})
	if err != nil {
		return nil, false, err
	}
	return ceng, resumed, nil
}

// validate resolves the spec against a roster function, returning the
// roster it names. Every failure here is a configuration error the
// operator must fix; nothing is deferred to first lease.
func (s Spec) validate(roster RosterFunc) ([]core.Algorithm, error) {
	if !ValidName(s.Name) {
		return nil, fmt.Errorf("tenant: invalid name %q", s.Name)
	}
	algos, err := roster(s.Workload)
	if err != nil {
		return nil, fmt.Errorf("tenant %s: %w", s.Name, err)
	}
	if len(algos) == 0 {
		return nil, fmt.Errorf("tenant %s: workload %q has an empty roster", s.Name, s.Workload)
	}
	if _, err := nominal.NewByName(s.selector()); err != nil {
		return nil, fmt.Errorf("tenant %s: %w", s.Name, err)
	}
	return algos, nil
}

// Engine is the trial-engine surface a tenant is served through:
// leasing, reporting, degraded-mode absorption, checkpointing and the
// read-side summary calls. core.Tuner and ctxtune.Engine both
// satisfy it; tuned.Engine is this interface.
type Engine interface {
	LeaseN(n int) ([]core.Trial, error)
	CompleteN(results []core.TrialResult) []error
	FailN(fails []core.TrialFailure) []error
	Heartbeat(ids []uint64) []bool
	Alive(ids []uint64) []bool
	Absorb(obs []nominal.Observation) int
	ReclaimExpired() int
	Checkpoint() error
	Best() (algo int, cfg param.Config, value float64)
	Iterations() int
	Counts() []int
	Stats() core.EngineStats
	FailureStats() core.FailureStats
	DriftStats() core.DriftStats
	Degraded() bool
	NumAlgorithms() int
	AlgorithmName(i int) string
	LeaseTimeout() time.Duration
}

// RosterFunc resolves a workload name to its algorithm roster. The
// roster is code (measurement spaces, not data), which is why specs
// carry the name and the registry carries the resolver.
type RosterFunc func(workload string) ([]core.Algorithm, error)

// BuiltinRoster resolves the two workloads the commands ship: the
// paper's parallel string-matching roster and the synthetic sleep
// roster used by smoke tests and benchmarks. atune-worker builds its
// measurement table from the same names, delivered in the handshake.
func BuiltinRoster(workload string) ([]core.Algorithm, error) {
	switch workload {
	case "strmatch":
		names := strmatch.Names()
		algos := make([]core.Algorithm, len(names))
		for i, n := range names {
			algos[i] = core.Algorithm{Name: n}
		}
		return algos, nil
	case "sleep":
		return []core.Algorithm{
			{Name: "sleep-steady"},
			{Name: "sleep-tuned", Space: param.NewSpace(param.NewRatio("alpha", 1, 10))},
			{Name: "sleep-laggard"},
		}, nil
	default:
		return nil, fmt.Errorf("unknown workload %q (want strmatch or sleep)", workload)
	}
}
