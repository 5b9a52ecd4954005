package core

import (
	"time"

	"repro/internal/guard"
)

// An Option configures NewTuner (and EngineSpec.Build, which calls it).
type Option func(*Tuner) error

// WithoutHistory disables per-iteration record keeping (the counts and
// incumbent are still maintained): History stays empty, each ValuesOf
// timeline keeps only its most recent values (see DefaultValuesTail),
// and snapshots carry no history tail. Memory then stays constant
// however long the tuner runs. Every engine a service builds —
// EngineSpec.Build, and the global and per-context engines of a
// contextual ctxtune engine — applies it; a checkpoint journal still
// records every trial.
func WithoutHistory() Option {
	return func(c *Tuner) error { c.t.keepHistory = false; return nil }
}

// WithGuard installs a fault-tolerance guard built from the given
// options (see package guard): Step, Run and RunPool route every
// measurement through it, so panics are recovered, deadlines enforced
// (guard.WithTimeout), and invalid samples rejected — each failure
// feeding a penalty to both tuning phases instead of crashing or
// poisoning the loop. Ask/tell callers wrap their measurement with
// Tuner.Guard().SafeMeasure (or call ObserveFailure directly). Combine
// with a guard.Quarantine selector to also suspend persistently failing
// algorithms.
func WithGuard(opts ...guard.Option) Option {
	return func(c *Tuner) error { c.t.guard = guard.New(opts...); return nil }
}

// WithLeaseTimeout sets the lease deadline (default DefaultLeaseTimeout).
// A d ≤ 0 disables expiry entirely: a lost worker then wedges its trial
// forever, so only disable it when completions are guaranteed. The
// trials Step and Next hand out never expire.
func WithLeaseTimeout(d time.Duration) Option {
	return func(c *Tuner) error { c.leaseTTL = d; return nil }
}

// WithMaxInFlight bounds the number of simultaneously outstanding
// trials, leased or held by Step and Next; Lease returns
// ErrTooManyInFlight beyond it. Zero (the default) means unlimited.
func WithMaxInFlight(n int) Option {
	return func(c *Tuner) error { c.maxInFlight = n; return nil }
}
