package ctxtune

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"sync"
)

// Partitioner maps feature vectors to context IDs and refines its
// partition from observed (features, cost) pairs. Implementations must
// be deterministic: the same feature vector always yields the same
// context ID between refinements, and refinements only ever subdivide —
// a context ID, once issued, keeps routing to that subtree.
type Partitioner interface {
	// Context returns the context ID for a feature vector. Empty
	// features return GlobalContext.
	Context(f Features) string
	// Observe feeds one measured cost for refinement and reports whether
	// it split a context. The new routing applies to subsequent Context
	// calls only.
	Observe(f Features, cost float64) bool
	// Contexts returns the IDs of every context created so far, sorted.
	Contexts() []string
	// Splits returns the splits made so far, in order; Replay re-applies
	// recorded splits, idempotently, in order.
	Splits() []Split
	Replay(splits []Split)
	// Export serializes the partitioner (topology and refinement
	// statistics); Restore replaces the receiver's state with it.
	Export() ([]byte, error)
	Restore(data []byte) error
}

// Tree partitioner defaults.
const (
	DefaultBuckets    = 4
	DefaultMinSamples = 64
	DefaultMinLift    = 1.5
	DefaultMaxDepth   = 4
)

// Split is one recorded refinement: node's cost distribution was bimodal
// across feature dimension Dim at quantized bin Bin, so the node was
// subdivided — features whose Dim'th quantized value is <= Bin route to
// the ".lo" child, the rest to ".hi". Splits are journaled in the order
// they happen (as checkpoint records, see Engine) and replaying them in
// order reconstructs the tree exactly.
type Split struct {
	Node string `json:"node"`
	Dim  int    `json:"dim"`
	Bin  int    `json:"bin"`
}

// binStat accumulates the cost mass of one quantized feature bin inside
// one leaf: enough to compare mean costs on either side of any candidate
// threshold without keeping raw samples.
type binStat struct {
	N   int     `json:"n"`
	Sum float64 `json:"sum"`
}

// node is one tree node: a hash bucket at the root, a leaf accumulating
// refinement statistics, or an interior node with a recorded split.
type node struct {
	id    string
	depth int

	split  *Split
	lo, hi *node

	// Leaf refinement statistics: per feature dimension, per quantized
	// bin, the count and sum of observed costs.
	count int
	dims  []map[int]*binStat
}

// Tree is the Partitioner implementation: quantized hash buckets first,
// refined online into a split tree. It is safe for concurrent use.
//
// Bucketing quantizes each feature to a log2 bin and hashes the bin
// vector into one of Buckets root contexts; distinct input regimes that
// collide into one bucket are then separated by splits once their cost
// distributions prove bimodal. Split decisions depend only on the
// accumulated per-bin statistics and a data-independent candidate set
// (the quantization boundaries), so clearly separated regimes produce
// the same splits regardless of observation arrival order.
type Tree struct {
	mu sync.Mutex

	buckets    int
	minSamples int
	minLift    float64
	maxDepth   int

	roots  map[int]*node
	nodes  map[string]*node
	splits []Split
}

// NewTree builds a Tree partitioner. Non-positive arguments take the
// package defaults.
func NewTree(buckets, minSamples int, minLift float64) *Tree {
	if buckets <= 0 {
		buckets = DefaultBuckets
	}
	if minSamples <= 0 {
		minSamples = DefaultMinSamples
	}
	if minLift <= 1 {
		minLift = DefaultMinLift
	}
	return &Tree{
		buckets:    buckets,
		minSamples: minSamples,
		minLift:    minLift,
		maxDepth:   DefaultMaxDepth,
		roots:      make(map[int]*node),
		nodes:      make(map[string]*node),
	}
}

// qbin quantizes one feature value to its log2 bin: 0 stays 0, and the
// bin grows with the magnitude's doubling count, signed. Non-finite
// values collapse into bin 0 — hostile input must route somewhere
// deterministic, not panic.
func qbin(v float64) int {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	b := int(math.Floor(math.Log2(1 + math.Abs(v))))
	if v < 0 {
		return -b
	}
	return b
}

// bucketOf hashes the quantized feature vector into a root bucket.
func (t *Tree) bucketOf(f Features) int {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range f {
		b := uint64(int64(qbin(v)))
		for i := 0; i < 8; i++ {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	return int(h.Sum64() % uint64(t.buckets))
}

// rootFor returns (creating on demand) the root node of a bucket.
func (t *Tree) rootFor(bucket int) *node {
	if n, ok := t.roots[bucket]; ok {
		return n
	}
	n := &node{id: "b" + strconv.Itoa(bucket)}
	t.roots[bucket] = n
	t.nodes[n.id] = n
	return n
}

// leafFor walks a feature vector from its bucket through the recorded
// splits to its leaf.
func (t *Tree) leafFor(f Features) *node {
	n := t.rootFor(t.bucketOf(f))
	for n.split != nil {
		s := n.split
		bin := 0
		if s.Dim < len(f) {
			bin = qbin(f[s.Dim])
		}
		if bin <= s.Bin {
			n = n.lo
		} else {
			n = n.hi
		}
	}
	return n
}

// Context implements Partitioner.
func (t *Tree) Context(f Features) string {
	if len(f) == 0 {
		return GlobalContext
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.leafFor(f).id
}

// Observe implements Partitioner: it accumulates the cost into the
// feature vector's leaf and splits the leaf when its distribution has
// proven bimodal across some feature threshold.
func (t *Tree) Observe(f Features, cost float64) bool {
	if len(f) == 0 || math.IsNaN(cost) || math.IsInf(cost, 0) {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.leafFor(f)
	n.count++
	for d, v := range f {
		for len(n.dims) <= d {
			n.dims = append(n.dims, make(map[int]*binStat))
		}
		b := qbin(v)
		st := n.dims[d][b]
		if st == nil {
			st = &binStat{}
			n.dims[d][b] = st
		}
		st.N++
		st.Sum += cost
	}
	// Evaluating the split gates scans every candidate threshold, which
	// is wasted work on a mature leaf that will never split again. Check
	// at the minSamples gate and every splitStride observations after:
	// a split lands at most splitStride observations later than it
	// would under per-observation evaluation, and the elected (dim, bin)
	// is unchanged — determinism across arrival order is preserved
	// because the journal records the split, not the count it fired at.
	return n.count >= t.minSamples && (n.count == t.minSamples || (n.count-t.minSamples)%splitStride == 0) &&
		t.maybeSplit(n)
}

// splitStride is how often a mature leaf re-evaluates its split gates.
const splitStride = 8

// maybeSplit evaluates the split gates on a leaf: enough samples, a
// candidate threshold with enough mass on both sides, and a mean-cost
// lift of at least minLift across it. Candidates are the quantization
// bin boundaries — a finite, data-independent set — and the winner is
// the highest lift with (dim, bin) as the deterministic tie-break, so
// any sufficiently large sample of a clearly bimodal stream elects the
// same split. It reports whether the leaf split.
func (t *Tree) maybeSplit(n *node) bool {
	if n.count < t.minSamples || n.depth >= t.maxDepth {
		return false
	}
	minSide := t.minSamples / 4
	if minSide < 1 {
		minSide = 1
	}
	bestLift := 0.0
	bestDim, bestBin := -1, 0
	for d, bins := range n.dims {
		if len(bins) < 2 {
			continue
		}
		order := make([]int, 0, len(bins))
		for b := range bins {
			order = append(order, b)
		}
		sort.Ints(order)
		// Prefix over the sorted bins: each boundary between consecutive
		// bins is one candidate threshold.
		loN, loSum := 0, 0.0
		totN, totSum := 0, 0.0
		for _, b := range order {
			totN += bins[b].N
			totSum += bins[b].Sum
		}
		for i := 0; i < len(order)-1; i++ {
			loN += bins[order[i]].N
			loSum += bins[order[i]].Sum
			hiN, hiSum := totN-loN, totSum-loSum
			if loN < minSide || hiN < minSide {
				continue
			}
			loMean, hiMean := loSum/float64(loN), hiSum/float64(hiN)
			if loMean <= 0 || hiMean <= 0 {
				continue
			}
			lift := loMean / hiMean
			if lift < 1 {
				lift = 1 / lift
			}
			if lift > bestLift {
				bestLift, bestDim, bestBin = lift, d, order[i]
			}
		}
	}
	if bestDim < 0 || bestLift < t.minLift {
		return false
	}
	t.applySplit(Split{Node: n.id, Dim: bestDim, Bin: bestBin})
	return true
}

// applySplit subdivides a node per the split record. It is idempotent —
// replaying a journaled split that already happened is a no-op — which
// is what makes snapshot + journal replay safe to combine.
func (t *Tree) applySplit(s Split) {
	n := t.nodes[s.Node]
	if n == nil || n.split != nil {
		return
	}
	n.split = &Split{Node: s.Node, Dim: s.Dim, Bin: s.Bin}
	n.lo = &node{id: n.id + ".lo", depth: n.depth + 1}
	n.hi = &node{id: n.id + ".hi", depth: n.depth + 1}
	t.nodes[n.lo.id] = n.lo
	t.nodes[n.hi.id] = n.hi
	// The parent's statistics describe the mixed distribution the split
	// just separated; the children start their refinement clean.
	n.count, n.dims = 0, nil
	t.splits = append(t.splits, n.split.clone())
}

func (s *Split) clone() Split { return Split{Node: s.Node, Dim: s.Dim, Bin: s.Bin} }

// Replay implements Partitioner: it applies journaled splits in order
// (idempotently), rebuilding the tree topology a previous process had
// learned.
func (t *Tree) Replay(splits []Split) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range splits {
		// Root buckets referenced by the journal may not exist yet in a
		// fresh tree; create them so the split has a parent to land on.
		if _, ok := t.nodes[s.Node]; !ok {
			if b, err := strconv.Atoi(trimBucket(s.Node)); err == nil && trimBucket(s.Node) != "" {
				t.rootFor(b)
			}
		}
		t.applySplit(s)
	}
}

// trimBucket extracts the bucket number from a root node ID ("b3" →
// "3"); interior IDs ("b3.lo") return "".
func trimBucket(id string) string {
	if len(id) < 2 || id[0] != 'b' {
		return ""
	}
	for _, c := range id[1:] {
		if c < '0' || c > '9' {
			return ""
		}
	}
	return id[1:]
}

// Contexts implements Partitioner: every node ID created so far, leaves
// and interior nodes alike, sorted.
func (t *Tree) Contexts() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.nodes))
	for id := range t.nodes {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Splits implements Partitioner.
func (t *Tree) Splits() []Split {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Split(nil), t.splits...)
}

// treeState is the Export payload: configuration, topology, and the
// per-leaf refinement statistics, so a restored tree keeps maturing
// toward its next split instead of restarting its counts.
type treeState struct {
	Buckets    int         `json:"buckets"`
	MinSamples int         `json:"min_samples"`
	MinLift    float64     `json:"min_lift"`
	MaxDepth   int         `json:"max_depth"`
	Splits     []Split     `json:"splits,omitempty"`
	Leaves     []leafState `json:"leaves,omitempty"`
}

type leafState struct {
	ID    string               `json:"id"`
	Count int                  `json:"count"`
	Dims  []map[string]binStat `json:"dims,omitempty"`
}

// Export implements Partitioner.
func (t *Tree) Export() ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := treeState{
		Buckets:    t.buckets,
		MinSamples: t.minSamples,
		MinLift:    t.minLift,
		MaxDepth:   t.maxDepth,
		Splits:     append([]Split(nil), t.splits...),
	}
	ids := make([]string, 0, len(t.nodes))
	for id := range t.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		n := t.nodes[id]
		if n.split != nil || n.count == 0 {
			continue
		}
		ls := leafState{ID: id, Count: n.count}
		for _, bins := range n.dims {
			m := make(map[string]binStat, len(bins))
			for b, st := range bins {
				m[strconv.Itoa(b)] = *st
			}
			ls.Dims = append(ls.Dims, m)
		}
		st.Leaves = append(st.Leaves, ls)
	}
	return json.Marshal(st)
}

// Restore implements Partitioner, replacing the tree with an exported
// snapshot.
func (t *Tree) Restore(data []byte) error {
	var st treeState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("ctxtune: partitioner snapshot: %w", err)
	}
	if st.Buckets <= 0 || st.MinSamples <= 0 || st.MinLift < 1 || st.MaxDepth <= 0 {
		return fmt.Errorf("ctxtune: partitioner snapshot has invalid configuration")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buckets = st.Buckets
	t.minSamples = st.MinSamples
	t.minLift = st.MinLift
	t.maxDepth = st.MaxDepth
	t.roots = make(map[int]*node)
	t.nodes = make(map[string]*node)
	t.splits = nil
	for _, s := range st.Splits {
		if b := trimBucket(s.Node); b != "" {
			if bn, err := strconv.Atoi(b); err == nil {
				t.rootFor(bn)
			}
		}
		t.applySplit(s)
	}
	for _, ls := range st.Leaves {
		if b := trimBucket(ls.ID); b != "" {
			if bn, err := strconv.Atoi(b); err == nil {
				t.rootFor(bn)
			}
		}
		n := t.nodes[ls.ID]
		if n == nil || n.split != nil || ls.Count < 0 {
			continue
		}
		n.count = ls.Count
		n.dims = nil
		for _, m := range ls.Dims {
			bins := make(map[int]*binStat, len(m))
			for k, v := range m {
				b, err := strconv.Atoi(k)
				if err != nil || v.N < 0 || math.IsNaN(v.Sum) || math.IsInf(v.Sum, 0) {
					continue
				}
				bins[b] = &binStat{N: v.N, Sum: v.Sum}
			}
			n.dims = append(n.dims, bins)
		}
	}
	return nil
}
