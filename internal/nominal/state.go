package nominal

import (
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/checkpoint"
)

// Stateful is the optional interface for selectors whose internal state
// can be checkpointed. Export serializes the selection state; Restore
// must be called on an instance that has been Init'ed with the same
// number of arms and overwrites it. Every selector constructed by
// NewByName implements Stateful — most inherit the implementation from
// the embedded history, and selectors with extra state (RoundRobin's
// cursor, UCB1's reward sums) override it.
type Stateful interface {
	Export() ([]byte, error)
	Restore([]byte) error
}

// historyTail bounds how many samples per arm a checkpoint keeps. The
// selectors only ever look DefaultWindow samples back (see window), so a
// tail of 64 preserves exact behavior for any window up to that size
// while keeping snapshots O(arms), not O(iterations).
const historyTail = 64

type sampleState struct {
	Iter  int          `json:"iter"`
	Value checkpoint.F `json:"value"`
}

type historyState struct {
	Arms [][]sampleState `json:"arms"`
	Seen []int           `json:"seen"`
	Iter int             `json:"iter"`
	Best []checkpoint.F  `json:"best"`
}

// appendHist appends the history's checkpoint state to b: a
// historyState holding each arm's last historyTail samples, encoded by
// hand and byte-identical to its json.Marshal form.
// TestExportMatchesJSON keeps that form as the reference, so a field
// added to historyState must be added here too.
func (h *history) appendHist(b []byte) []byte {
	b = append(b, `{"arms":[`...)
	for i, arm := range h.arms {
		if i > 0 {
			b = append(b, ',')
		}
		if len(arm) > historyTail {
			arm = arm[len(arm)-historyTail:]
		}
		b = append(b, '[')
		for j, s := range arm {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"iter":`...)
			b = strconv.AppendInt(b, int64(s.iter), 10)
			b = append(b, `,"value":`...)
			b = checkpoint.AppendF(b, checkpoint.F(s.value))
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `],"seen":`...)
	b = checkpoint.AppendInts(b, h.seen)
	b = append(b, `,"iter":`...)
	b = strconv.AppendInt(b, int64(h.iter), 10)
	b = append(b, `,"best":`...)
	b = checkpoint.AppendFloats(b, h.best)
	return append(b, '}')
}

// exportBuf returns an empty buffer with room for the history's
// checkpoint state plus extra bytes of selector-specific state, so
// Export usually encodes without growing it.
func (h *history) exportBuf(extra int) []byte {
	n := 64 + extra
	for _, arm := range h.arms {
		n += 40 + 48*min(len(arm), historyTail)
	}
	return make([]byte, 0, n)
}

func (h *history) restoreHist(st historyState) error {
	if h.arms == nil {
		return fmt.Errorf("nominal: Restore before Init")
	}
	n := len(h.arms)
	if len(st.Arms) != n || len(st.Seen) != n || len(st.Best) != n {
		return fmt.Errorf("nominal: Restore state has %d arms, selector has %d", len(st.Arms), n)
	}
	for i, c := range st.Seen {
		if c < 0 || len(st.Arms[i]) > c {
			return fmt.Errorf("nominal: Restore arm %d has %d samples but %d visits", i, len(st.Arms[i]), c)
		}
	}
	arms := make([][]sample, n)
	for i, ss := range st.Arms {
		arm := make([]sample, len(ss))
		for j, s := range ss {
			arm[j] = sample{iter: s.Iter, value: float64(s.Value)}
		}
		arms[i] = arm
	}
	h.arms = arms
	h.seen = append([]int(nil), st.Seen...)
	h.iter = st.Iter
	h.best = checkpoint.Unfloats(st.Best)
	return nil
}

// Export serializes the selector's observation history; selectors whose
// whole state is the embedded history inherit this method.
func (h *history) Export() ([]byte, error) {
	if h.arms == nil {
		return nil, fmt.Errorf("nominal: Export before Init")
	}
	return h.appendHist(h.exportBuf(0)), nil
}

// Restore overwrites the history of an Init'ed selector.
func (h *history) Restore(data []byte) error {
	var st historyState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	return h.restoreHist(st)
}

// ---- RoundRobin ----

type roundRobinState struct {
	Hist historyState `json:"hist"`
	Next int          `json:"next"`
}

// Export serializes the history and the cyclic cursor.
func (rr *RoundRobin) Export() ([]byte, error) {
	if rr.arms == nil {
		return nil, fmt.Errorf("nominal: Export before Init")
	}
	b := append(rr.exportBuf(32), `{"hist":`...)
	b = rr.appendHist(b)
	b = append(b, `,"next":`...)
	b = strconv.AppendInt(b, int64(rr.next), 10)
	return append(b, '}'), nil
}

// Restore overwrites the state of an Init'ed selector.
func (rr *RoundRobin) Restore(data []byte) error {
	var st roundRobinState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if err := rr.restoreHist(st.Hist); err != nil {
		return err
	}
	if st.Next < 0 || st.Next >= rr.n() {
		return fmt.Errorf("nominal: RoundRobin.Restore: cursor %d out of range", st.Next)
	}
	rr.next = st.Next
	return nil
}

// ---- UCB1 ----

type ucb1State struct {
	Hist historyState   `json:"hist"`
	Sums []checkpoint.F `json:"sums"`
}

// Export serializes the history and the per-arm reward sums.
func (u *UCB1) Export() ([]byte, error) {
	if u.arms == nil {
		return nil, fmt.Errorf("nominal: Export before Init")
	}
	b := append(u.exportBuf(16+24*len(u.sums)), `{"hist":`...)
	b = u.appendHist(b)
	b = append(b, `,"sums":`...)
	b = checkpoint.AppendFloats(b, u.sums)
	return append(b, '}'), nil
}

// Restore overwrites the state of an Init'ed selector.
func (u *UCB1) Restore(data []byte) error {
	var st ucb1State
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if err := u.restoreHist(st.Hist); err != nil {
		return err
	}
	if len(st.Sums) != u.n() {
		return fmt.Errorf("nominal: UCB1.Restore: %d sums for %d arms", len(st.Sums), u.n())
	}
	u.sums = checkpoint.Unfloats(st.Sums)
	return nil
}
