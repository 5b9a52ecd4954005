package core

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"time"

	"repro/internal/nominal"
	"repro/internal/search"
)

// EngineSpec is the serialized form of an engine's option set: everything
// NewTuner takes through []Option that a service must be able to
// store, compare and reconstruct per tuning problem. A multi-tenant
// server keeps one EngineSpec per tenant on disk next to the tenant's
// checkpoints; Build turns it back into a live engine, resuming the
// tenant's checkpoint when there is one, and Hash pins the configuration
// so a resumed tenant cannot silently come back with different tuning
// semantics.
//
// The spec covers the engine-scope knobs. What it deliberately does not
// serialize: the algorithm roster (a []Algorithm
// with live measurement spaces — callers pass it to Build, and Hash
// folds the names in), the selector (an interface value — callers
// construct it, typically via nominal.NewByName), and the search
// factory. Those are code, not configuration.
type EngineSpec struct {
	// Seed seeds the tuner's RNG.
	Seed int64 `json:"seed"`
	// LeaseTimeoutMS is the lease TTL in milliseconds; 0 means
	// DefaultLeaseTimeout. Negative disables expiry (WithLeaseTimeout
	// of a non-positive duration).
	LeaseTimeoutMS int64 `json:"lease_timeout_ms,omitempty"`
	// MaxInFlight bounds outstanding leases (see WithMaxInFlight);
	// 0 means unlimited.
	MaxInFlight int `json:"max_inflight,omitempty"`
	// Drift arms the drift watchdog with DefaultDriftConfig.
	Drift bool `json:"drift,omitempty"`
	// SnapshotEvery is the checkpoint cadence in completed trials when
	// Build is given a checkpoint directory; 0 means 100.
	SnapshotEvery int `json:"snapshot_every,omitempty"`
}

// withDefaults returns the spec with zero fields resolved to their
// effective values, so Hash treats an explicit default and an omitted
// field identically.
func (s EngineSpec) withDefaults() EngineSpec {
	if s.LeaseTimeoutMS == 0 {
		s.LeaseTimeoutMS = DefaultLeaseTimeout.Milliseconds()
	}
	if s.LeaseTimeoutMS < 0 {
		s.LeaseTimeoutMS = -1
	}
	if s.MaxInFlight < 0 {
		s.MaxInFlight = 0
	}
	if s.SnapshotEvery <= 0 {
		s.SnapshotEvery = 100
	}
	return s
}

// Options expands the spec into the option slice the constructors take.
// ckptDir, when non-empty, adds WithCheckpoint at the spec's cadence.
// A spec-built engine serves for as long as its process runs, so it
// keeps no per-trial log (WithoutHistory): its memory stays constant
// however many trials it serves, and the checkpoint journal, not the
// engine, records every trial.
func (s EngineSpec) Options(ckptDir string) []Option {
	s = s.withDefaults()
	ttl := time.Duration(s.LeaseTimeoutMS) * time.Millisecond
	if s.LeaseTimeoutMS < 0 {
		ttl = 0
	}
	opts := []Option{
		WithoutHistory(),
		WithLeaseTimeout(ttl),
	}
	if s.MaxInFlight > 0 {
		opts = append(opts, WithMaxInFlight(s.MaxInFlight))
	}
	if s.Drift {
		opts = append(opts, WithDriftWatchdog(DefaultDriftConfig()))
	}
	if ckptDir != "" {
		opts = append(opts, WithCheckpoint(ckptDir, s.SnapshotEvery))
	}
	return opts
}

// Hash fingerprints the spec together with an algorithm roster and a
// selector name: two engines agree on it exactly when they would make
// the same tuning decisions over the same trial stream. It is the
// persistence-side sibling of the wire handshake's roster hash — a
// tenant directory whose stored hash differs was written by a different
// configuration and must not be resumed into this one.
//
// The canonical form still carries the retired multi-shard fields at the
// values every engine now has, one shard and a fold cadence of 16, so
// the hashes of existing tenant directories do not move. (Their outer
// "seed" hides the embedded one, and they encode in this order.)
func (s EngineSpec) Hash(algos []string, selector string) uint32 {
	canon, _ := json.Marshal(struct { // struct of scalars: cannot fail
		Seed      int64 `json:"seed"`
		Shards    int   `json:"shards"`
		FoldEvery int   `json:"merge_every"`
		EngineSpec
	}{s.Seed, 1, 16, s.withDefaults()})
	h := crc32.NewIEEE()
	h.Write(canon)
	h.Write([]byte{0})
	h.Write([]byte(selector))
	for _, a := range algos {
		h.Write([]byte{0})
		h.Write([]byte(a))
	}
	return h.Sum32()
}

// Build constructs a trial engine from the spec. A non-empty ckptDir
// makes the engine durable there at the spec's snapshot cadence, and
// resumes it when ckptDir already holds a checkpoint (see
// WithCheckpoint).
func (s EngineSpec) Build(algos []Algorithm, selector nominal.Selector, factory search.Factory, ckptDir string) (*Tuner, error) {
	eng, err := NewTuner(algos, selector, factory, s.Seed, s.Options(ckptDir)...)
	if err != nil {
		return nil, fmt.Errorf("core: build from spec: %w", err)
	}
	return eng, nil
}
