// Package documentation lives in doc.go, together with the Selector
// contract and the compile-time interface-satisfaction checks.
package nominal

import (
	"fmt"
	"math"
	"math/rand"
)

// DefaultWindow is the iteration window size used by the Gradient Weighted
// and Sliding-Window AUC strategies in the paper's case studies.
const DefaultWindow = 16

// A Selector chooses one of n algorithms per tuning iteration.
//
// The calling contract mirrors search.Strategy: Init precedes everything;
// Select and Report then alternate, Report carrying the arm that Select
// returned together with its measured value.
type Selector interface {
	// Name identifies the strategy, e.g. "egreedy(10%)".
	Name() string
	// Init prepares the selector for n arms, discarding prior state.
	Init(n int)
	// Select returns the arm to run this iteration, in [0, n).
	Select(r *rand.Rand) int
	// Report records the measured value (lower is better) for an arm.
	Report(arm int, value float64)
}

// Observation is one completed measurement reported outside the live
// Select/Report loop: a degraded-mode worker records them against its
// local selector and the engine replays them through Report
// (core.Tuner.Absorb). Failed observations carry the tuner's
// penalty as Value, mirroring how failures reach Report in the live path.
type Observation struct {
	Arm    int
	Value  float64
	Failed bool
}

// sample is one observation of one arm.
type sample struct {
	iter  int // global iteration number at which it was taken
	value float64
}

// history is the per-arm observation store shared by the selectors.
// seen counts reports per arm independently of the stored samples, so a
// checkpoint can persist only a bounded tail of each arm's samples (the
// selectors look at most DefaultWindow-sized windows back) without
// corrupting visit counts.
type history struct {
	arms [][]sample
	seen []int
	iter int
	best []float64 // per-arm minimum value, +Inf when unvisited
	maxW int       // largest window any caller has requested (see window)
}

func (h *history) init(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("nominal: selector initialized with %d arms", n))
	}
	h.arms = make([][]sample, n)
	h.seen = make([]int, n)
	h.best = make([]float64, n)
	for i := range h.best {
		h.best[i] = math.Inf(1)
	}
	h.iter = 0
}

func (h *history) n() int { return len(h.arms) }

func (h *history) report(arm int, v float64) {
	if arm < 0 || arm >= len(h.arms) {
		panic(fmt.Sprintf("nominal: report for arm %d of %d", arm, len(h.arms)))
	}
	h.arms[arm] = append(h.arms[arm], sample{iter: h.iter, value: v})
	h.seen[arm]++
	h.iter++
	if v < h.best[arm] {
		h.best[arm] = v
	}
	// Amortized compaction: no selector looks further back than the
	// largest window it has ever requested (visit counts and the per-arm
	// minimum live in seen/best, checkpoints export at most historyTail
	// samples), so once an arm holds twice the needed tail the older half
	// is dropped in place. Memory stays constant over unbounded runs and
	// appends reuse the compacted array's spare capacity.
	if need := h.tailNeed(); len(h.arms[arm]) > 2*need {
		s := h.arms[arm]
		copy(s, s[len(s)-need:])
		h.arms[arm] = s[:need]
	}
}

// tailNeed returns how many trailing samples per arm must be retained:
// the largest window ever requested, floored at the checkpoint tail.
func (h *history) tailNeed() int {
	if h.maxW > historyTail {
		return h.maxW
	}
	return historyTail
}

func (h *history) visits(arm int) int { return h.seen[arm] }

// window returns the last w samples of an arm. The largest w ever
// requested is remembered so report's compaction never discards samples
// a selector still looks back at.
func (h *history) window(arm, w int) []sample {
	if w > h.maxW {
		h.maxW = w
	}
	s := h.arms[arm]
	if len(s) > w {
		s = s[len(s)-w:]
	}
	return s
}

func (h *history) mustInit(name string) {
	if h.arms == nil {
		panic("nominal: " + name + " used before Init")
	}
}

// bestArm returns the arm with the lowest best-observed value, ties broken
// toward the lower index; ok is false when no arm has been observed.
func (h *history) bestArm() (arm int, ok bool) {
	best := math.Inf(1)
	arm = -1
	for i, v := range h.best {
		if v < best {
			best = v
			arm = i
		}
	}
	return arm, arm >= 0
}

// weightedDraw samples an index proportionally to the (strictly positive)
// weights. It falls back to uniform when the weights are degenerate.
func weightedDraw(r *rand.Rand, w []float64) int {
	total := 0.0
	for _, x := range w {
		if x > 0 && !math.IsInf(x, 0) && !math.IsNaN(x) {
			total += x
		}
	}
	if total <= 0 || math.IsInf(total, 0) || math.IsNaN(total) {
		return r.Intn(len(w))
	}
	t := r.Float64() * total
	acc := 0.0
	for i, x := range w {
		if x > 0 && !math.IsInf(x, 0) && !math.IsNaN(x) {
			acc += x
			if t < acc {
				return i
			}
		}
	}
	return len(w) - 1
}

// EpsilonGreedy is the paper's ε-Greedy strategy (Section III-A): with
// probability 1−ε it exploits the algorithm with the best observed
// performance, otherwise it explores uniformly at random. Initialization
// tries every algorithm exactly once in deterministic order, still subject
// to the ε-randomness, exactly as described in the evaluation (the order is
// visible in the first seven samples of the paper's Figure 2).
type EpsilonGreedy struct {
	history
	// Eps is the exploration probability in [0, 1].
	Eps float64
	// RecencyWindow, when positive, makes "currently best performing" mean
	// the best value among each algorithm's last RecencyWindow samples
	// instead of its all-time best. The paper's formulation (all-time
	// best) assumes a fixed context; under context drift a stale record
	// keeps a no-longer-fast algorithm in power forever, which the
	// windowed variant corrects. Zero (the default) is paper-faithful.
	RecencyWindow int
}

// NewEpsilonGreedy creates an ε-Greedy selector. The paper evaluates
// ε ∈ {0.05, 0.10, 0.20}.
func NewEpsilonGreedy(eps float64) *EpsilonGreedy {
	if eps < 0 || eps > 1 || math.IsNaN(eps) {
		panic(fmt.Sprintf("nominal: ε = %g outside [0,1]", eps))
	}
	return &EpsilonGreedy{Eps: eps}
}

// Name returns e.g. "egreedy(10%)".
func (e *EpsilonGreedy) Name() string {
	return fmt.Sprintf("egreedy(%g%%)", e.Eps*100)
}

// Init prepares the selector for n arms.
func (e *EpsilonGreedy) Init(n int) { e.history.init(n) }

// Select returns the next arm: the first unvisited arm in deterministic
// order during initialization, afterwards the incumbent — in both cases
// subject to ε-exploration.
func (e *EpsilonGreedy) Select(r *rand.Rand) int {
	e.mustInit("EpsilonGreedy.Select")
	if r.Float64() < e.Eps {
		return r.Intn(e.n())
	}
	for i := 0; i < e.n(); i++ {
		if e.visits(i) == 0 {
			return i
		}
	}
	if e.RecencyWindow > 0 {
		return e.bestArmWindowed(e.RecencyWindow)
	}
	arm, _ := e.bestArm()
	return arm
}

// bestArmWindowed returns the arm with the lowest minimum over its last w
// samples.
func (e *EpsilonGreedy) bestArmWindowed(w int) int {
	best, bestVal := 0, math.Inf(1)
	for i := 0; i < e.n(); i++ {
		for _, s := range e.window(i, w) {
			if s.value < bestVal {
				bestVal = s.value
				best = i
			}
		}
	}
	return best
}

// Report records the measurement.
func (e *EpsilonGreedy) Report(arm int, v float64) {
	e.mustInit("EpsilonGreedy.Report")
	e.report(arm, v)
}

// GradientWeighted is the paper's Gradient Weighted strategy (Section
// III-B): each algorithm is drawn with probability proportional to a weight
// derived from the gradient of its performance (1/time) over its latest
// iteration window:
//
//	G_A = (1/m_{A,i1} − 1/m_{A,i0}) / (i1 − i0)
//	w_A = G_A + 2      if G_A ≥ −1
//	      −1 / G_A     otherwise
//
// The weight is always positive, so no algorithm is ever excluded. The
// paper motivates this method as a mitigation for ε-Greedy's weakness on
// tuning-profile crossovers: algorithms still making progress get selected
// more. Once all algorithms have converged all gradients vanish and the
// method degenerates to uniform random selection — the paper calls this
// out explicitly (Section IV-C).
type GradientWeighted struct {
	history
	// Window is the iteration window size; the paper uses 16.
	Window int
	// Relative switches the gradient to the scale-invariant relative
	// improvement rate G = (m_first/m_last − 1)/Δi. The paper's absolute
	// formula operates on 1/time, whose gradients vanish when times are
	// large regardless of relative progress; the relative form responds
	// to "improved by 30% this window" identically at every time scale.
	// Off by default (paper-faithful).
	Relative bool
}

// NewGradientWeighted creates a Gradient Weighted selector with the
// paper's window size of 16.
func NewGradientWeighted() *GradientWeighted {
	return &GradientWeighted{Window: DefaultWindow}
}

// Name returns "gradient-weighted".
func (g *GradientWeighted) Name() string { return "gradient-weighted" }

// Init prepares the selector for n arms.
func (g *GradientWeighted) Init(n int) { g.history.init(n) }

// weight computes w_A for one arm; arms with fewer than two samples have a
// zero gradient and hence weight 2.
func (g *GradientWeighted) weight(arm int) float64 {
	win := g.window(arm, g.Window)
	grad := 0.0
	if len(win) >= 2 {
		first, last := win[0], win[len(win)-1]
		di := last.iter - first.iter
		if di > 0 && first.value > 0 && last.value > 0 {
			if g.Relative {
				grad = (first.value/last.value - 1) / float64(di)
			} else {
				grad = (1/last.value - 1/first.value) / float64(di)
			}
		}
	}
	if grad >= -1 {
		return grad + 2
	}
	return -1 / grad
}

// Select draws an arm with probability proportional to its weight.
func (g *GradientWeighted) Select(r *rand.Rand) int {
	g.mustInit("GradientWeighted.Select")
	w := make([]float64, g.n())
	for i := range w {
		w[i] = g.weight(i)
	}
	return weightedDraw(r, w)
}

// Report records the measurement.
func (g *GradientWeighted) Report(arm int, v float64) {
	g.mustInit("GradientWeighted.Report")
	g.report(arm, v)
}

// OptimumWeighted is the paper's Optimum Weighted strategy (Section
// III-C): each algorithm is drawn with probability proportional to its
// best observed performance, w_A = max_i 1/m_{A,i} = 1/min_i m_{A,i}.
// Unvisited algorithms receive the current maximum weight (optimistic
// initialization) so that every algorithm is tried.
type OptimumWeighted struct {
	history
}

// NewOptimumWeighted creates an Optimum Weighted selector.
func NewOptimumWeighted() *OptimumWeighted { return &OptimumWeighted{} }

// Name returns "optimum-weighted".
func (o *OptimumWeighted) Name() string { return "optimum-weighted" }

// Init prepares the selector for n arms.
func (o *OptimumWeighted) Init(n int) { o.history.init(n) }

// Select draws an arm with probability proportional to 1/min(m).
func (o *OptimumWeighted) Select(r *rand.Rand) int {
	o.mustInit("OptimumWeighted.Select")
	w := make([]float64, o.n())
	maxW := 0.0
	for i := range w {
		if b := o.best[i]; !math.IsInf(b, 1) && b > 0 {
			w[i] = 1 / b
			if w[i] > maxW {
				maxW = w[i]
			}
		}
	}
	if maxW == 0 {
		return r.Intn(o.n())
	}
	for i := range w {
		if o.visits(i) == 0 {
			w[i] = maxW
		}
	}
	return weightedDraw(r, w)
}

// Report records the measurement.
func (o *OptimumWeighted) Report(arm int, v float64) {
	o.mustInit("OptimumWeighted.Report")
	o.report(arm, v)
}

// SlidingWindowAUC is the paper's Sliding-Window Area-Under-the-Curve
// strategy (Section III-D), motivated by the AUC bandit meta-heuristic of
// OpenTuner: each algorithm's weight is the area under its performance
// (1/time) curve within a sliding window of its last Window samples,
//
//	w_A = Σ_{i=i0}^{i1} (1/m_{A,i}) / (i1 − i0).
//
// Unvisited algorithms receive the current maximum weight.
type SlidingWindowAUC struct {
	history
	// Window is the sliding window size; the paper uses 16.
	Window int
}

// NewSlidingWindowAUC creates a Sliding-Window AUC selector with the
// paper's window size of 16.
func NewSlidingWindowAUC() *SlidingWindowAUC {
	return &SlidingWindowAUC{Window: DefaultWindow}
}

// Name returns "sliding-window-auc".
func (s *SlidingWindowAUC) Name() string { return "sliding-window-auc" }

// Init prepares the selector for n arms.
func (s *SlidingWindowAUC) Init(n int) { s.history.init(n) }

func (s *SlidingWindowAUC) weight(arm int) float64 {
	win := s.window(arm, s.Window)
	if len(win) == 0 {
		return 0
	}
	sum := 0.0
	for _, smp := range win {
		if smp.value > 0 {
			sum += 1 / smp.value
		}
	}
	return sum / float64(len(win))
}

// Select draws an arm with probability proportional to its windowed mean
// performance.
func (s *SlidingWindowAUC) Select(r *rand.Rand) int {
	s.mustInit("SlidingWindowAUC.Select")
	w := make([]float64, s.n())
	maxW := 0.0
	for i := range w {
		w[i] = s.weight(i)
		if w[i] > maxW {
			maxW = w[i]
		}
	}
	if maxW == 0 {
		return r.Intn(s.n())
	}
	for i := range w {
		if s.visits(i) == 0 {
			w[i] = maxW
		}
	}
	return weightedDraw(r, w)
}

// Report records the measurement.
func (s *SlidingWindowAUC) Report(arm int, v float64) {
	s.mustInit("SlidingWindowAUC.Report")
	s.report(arm, v)
}
