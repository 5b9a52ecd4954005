// Package nominal implements the paper's four probabilistic strategies for
// tuning nominal parameters — of which algorithmic choice is the canonical
// instance — plus the ε-Greedy × Gradient-Weighted combination its
// conclusion proposes as future work, and the baselines the paper
// discusses or invites: uniform random, round-robin, the soft-max policy
// it considers and rejects (§III-A), and UCB1 from the bandit literature.
//
// # The Selector contract
//
// A Selector is a multi-armed-bandit-style chooser over n "arms"
// (algorithms). The calling contract mirrors search.Strategy:
//
//   - Init(n) precedes everything and discards prior state. Every other
//     method panics before Init.
//   - Select(r) returns the arm to run, in [0, n). All randomness flows
//     through the passed *rand.Rand, so a caller with a seeded source
//     gets reproducible selection sequences.
//   - Report(arm, value) records one measurement (lower is better; time
//     in the paper). A single-caller tuner strictly alternates
//     Select/Report; selectors must NOT rely on that alternation —
//     concurrent drivers issue several Selects before the matching
//     Reports arrive, and Absorb replays Report batches with no
//     Select at all.
//   - Failed iterations reach Report as penalty values (the tuner
//     substitutes its penalty for the failed measurement), so a selector
//     steers away from failing arms with no extra interface. Selectors
//     that want to distinguish real failures additionally implement
//     guard.FailureAware; the tuner calls ReportFailure BEFORE the
//     corresponding Report, so the failure context is in place when the
//     penalty value lands.
//
// # Optional capability interfaces
//
// Two optional interfaces extend the contract; the tuner layers detect
// them by type assertion:
//
//   - Stateful (state.go) — Export/Restore of the selection state, for
//     crash-safe checkpoints. Reward tails are bounded (historyTail), so
//     snapshots stay O(arms).
//   - InFlightAware (inflight.go) — SelectInFlight(r, inFlight) for
//     concurrent engines: the per-arm count of leased-but-unreported
//     trials spreads simultaneous draws across arms. Implementations
//     consume the same random draws as Select when nothing is in flight,
//     which is what makes a single-flight concurrent engine reproduce
//     the sequential decision sequence exactly.
//
// All nine selectors in this package implement Stateful; the four paper
// strategies also implement InFlightAware.
// The compile-time checks below pin that matrix.
package nominal

// Compile-time interface-satisfaction checks for the full selector
// roster. Removing a method from any selector breaks the build here,
// not at a distant call site's type assertion.
var (
	_ Selector = (*EpsilonGreedy)(nil)
	_ Selector = (*GradientWeighted)(nil)
	_ Selector = (*OptimumWeighted)(nil)
	_ Selector = (*SlidingWindowAUC)(nil)
	_ Selector = (*UniformRandom)(nil)
	_ Selector = (*RoundRobin)(nil)
	_ Selector = (*Softmax)(nil)
	_ Selector = (*UCB1)(nil)
	_ Selector = (*GreedyGradient)(nil)

	_ Stateful = (*EpsilonGreedy)(nil)
	_ Stateful = (*GradientWeighted)(nil)
	_ Stateful = (*OptimumWeighted)(nil)
	_ Stateful = (*SlidingWindowAUC)(nil)
	_ Stateful = (*UniformRandom)(nil)
	_ Stateful = (*RoundRobin)(nil)
	_ Stateful = (*Softmax)(nil)
	_ Stateful = (*UCB1)(nil)
	_ Stateful = (*GreedyGradient)(nil)

	_ InFlightAware = (*EpsilonGreedy)(nil)
	_ InFlightAware = (*GradientWeighted)(nil)
	_ InFlightAware = (*OptimumWeighted)(nil)
	_ InFlightAware = (*SlidingWindowAUC)(nil)
)
