package core

import (
	"errors"
	"time"

	"repro/internal/guard"
)

// ErrOptionScope is returned (wrapped) by a constructor handed an Option
// that does not apply to what it builds — for example WithMaxInFlight on
// the sequential NewTuner, so a misplaced option is loud instead of
// silently no-oping.
var ErrOptionScope = errors.New("option does not apply to this constructor")

// An Option configures any of the core constructors. One option type
// serves NewTuner, NewConcurrentTuner and EngineSpec.Build; each option
// documents its scope, and a constructor outside that scope rejects it
// with an error wrapping ErrOptionScope.
type Option struct {
	name   string
	tuner  func(*Tuner)
	engine func(*ConcurrentTuner)
}

func tunerOption(name string, f func(*Tuner)) Option {
	return Option{name: name, tuner: f}
}

func engineOption(name string, f func(*ConcurrentTuner)) Option {
	return Option{name: name, engine: f}
}

// splitEngineOptions partitions options for a constructor that builds a
// Tuner wrapped in a ConcurrentTuner.
func splitEngineOptions(opts []Option) (tunerOpts, engineOpts []Option, err error) {
	for _, o := range opts {
		switch {
		case o.tuner != nil:
			tunerOpts = append(tunerOpts, o)
		case o.engine != nil:
			engineOpts = append(engineOpts, o)
		default:
			return nil, nil, scopeErr(o)
		}
	}
	return tunerOpts, engineOpts, nil
}

func scopeErr(o Option) error {
	name := o.name
	if name == "" {
		name = "(unnamed option)"
	}
	return &optionScopeError{name: name}
}

type optionScopeError struct{ name string }

func (e *optionScopeError) Error() string {
	return "core: option " + e.name + ": " + ErrOptionScope.Error()
}

func (e *optionScopeError) Unwrap() error { return ErrOptionScope }

// WithoutHistory disables per-iteration record keeping (the counts and
// incumbent are still maintained): History stays empty, each ValuesOf
// timeline keeps only its most recent values (see DefaultValuesTail),
// and snapshots carry no history tail. Memory then stays constant
// however long the tuner runs. Every engine a service builds —
// EngineSpec.Build, and the global and per-context engines of a
// contextual ctxtune engine — applies it; a checkpoint journal still
// records every trial. Scope: every constructor (it configures the
// underlying Tuner).
func WithoutHistory() Option {
	return tunerOption("WithoutHistory", func(t *Tuner) { t.keepHistory = false })
}

// WithGuard installs a fault-tolerance guard built from the given
// options (see package guard): Step/Run route every measurement through
// it, so panics are recovered, deadlines enforced (guard.WithTimeout),
// and invalid samples rejected — each failure feeding a penalty to both
// tuning phases instead of crashing or poisoning the loop. Ask/tell
// callers wrap their measurement with Tuner.Guard().SafeMeasure (or call
// ObserveFailure directly). Combine with a guard.Quarantine selector to
// also suspend persistently failing algorithms. Scope: every
// constructor.
func WithGuard(opts ...guard.Option) Option {
	return tunerOption("WithGuard", func(t *Tuner) { t.guard = guard.New(opts...) })
}

// WithWatchdog tunes the failure-rate watchdog behind the degradation
// mode: when the failure rate over the last window completed iterations
// reaches threshold (in (0, 1]), the tuner stops exploring and pins the
// known-good incumbent until the rate falls back below threshold/2.
// The default is window 32, threshold 0.5. A window of 0 disables the
// watchdog entirely. Scope: every constructor.
func WithWatchdog(window int, threshold float64) Option {
	return tunerOption("WithWatchdog", func(t *Tuner) {
		t.watchWindow = window
		if threshold > 0 && threshold <= 1 {
			t.degradeAt = threshold
			t.recoverAt = threshold / 2
		}
	})
}

// WithLeaseTimeout sets the lease deadline (default DefaultLeaseTimeout).
// A d ≤ 0 disables expiry entirely: a lost worker then wedges its trial
// forever, so only disable it when completions are guaranteed. Scope:
// NewConcurrentTuner and EngineSpec.Build.
func WithLeaseTimeout(d time.Duration) Option {
	return engineOption("WithLeaseTimeout", func(c *ConcurrentTuner) { c.leaseTTL = d })
}

// WithMaxInFlight bounds the number of simultaneously outstanding
// leases; Lease returns ErrTooManyInFlight beyond it. Zero (the default)
// means unlimited. Scope: NewConcurrentTuner and EngineSpec.Build.
func WithMaxInFlight(n int) Option {
	return engineOption("WithMaxInFlight", func(c *ConcurrentTuner) { c.maxInFlight = n })
}
