package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/guard"
	"repro/internal/nominal"
	"repro/internal/param"
	"repro/internal/search"
)

// referenceExportState is the reflective encoder ExportState replaced:
// it fills a tunerState and hands it to json.Marshal. ExportState must
// write exactly these bytes.
func referenceExportState(t *tuner) ([]byte, error) {
	seed, drawn := t.src.State()
	st := tunerState{
		Algos:       make([]string, len(t.algos)),
		RngSeed:     seed,
		RngDrawn:    drawn,
		Counts:      append([]int(nil), t.counts...),
		BestAlgo:    t.bestAlgo,
		BestCfg:     checkpoint.Floats(t.bestCfg),
		BestVal:     checkpoint.F(t.bestVal),
		WorstVal:    checkpoint.F(t.worstVal),
		Strategies:  make([]json.RawMessage, len(t.strategies)),
		FailTotal:   t.failTotal,
		FailPanics:  t.failPanics,
		FailTimeout: t.failTimeout,
		FailInvalid: t.failInvalid,
		FailPerAlgo: append([]int(nil), t.failPerAlgo...),
		LastValue:   checkpoint.F(t.lastValue),
		LastFailed:  t.lastFailed,
		Recent:      append([]bool(nil), t.recent...),
		RecentIdx:   t.recentIdx,
		RecentFill:  t.recentFill,
		RecentFails: t.recentFails,
		Degraded:    t.degraded,
		PinnedIters: t.pinnedIters,
	}
	for i, p := range t.proposers {
		if p.Holds() {
			st.Held = append(st.Held, i)
		}
	}
	for i, a := range t.algos {
		st.Algos[i] = a.Name
	}
	raw, err := t.selector.(nominal.Stateful).Export()
	if err != nil {
		return nil, err
	}
	st.Selector = raw
	for i, s := range t.strategies {
		raw, err := s.(search.Stateful).Export()
		if err != nil {
			return nil, err
		}
		st.Strategies[i] = raw
	}
	if t.guard != nil {
		raw, err := t.guard.Export()
		if err != nil {
			return nil, err
		}
		st.Guard = raw
	}
	if t.driftSeq > 0 || t.drift != nil {
		ds := &driftState{Seq: t.driftSeq}
		if d := t.drift; d != nil {
			ds.ProbeQ = append([]int(nil), d.probeQ...)
			ds.Cooldown = d.cooldown
			ds.Events = d.events
			ds.Decays = d.decays
			ds.Reforks = d.reforks
			ds.ProbesScheduled = d.probesScheduled
			ds.Outliers = d.outliers
			ds.Stale = d.staleDrops
		}
		st.Drift = ds
	}
	tail := t.history
	if len(tail) > stateHistoryTail {
		tail = tail[len(tail)-stateHistoryTail:]
	}
	st.HistoryTail = make([]recState, len(tail))
	for i, r := range tail {
		st.HistoryTail[i] = recState{
			Iteration: r.Iteration, Algo: r.Algo,
			Config: checkpoint.Floats(r.Config),
			Value:  checkpoint.F(r.Value), Failed: r.Failed,
		}
	}
	if cs := t.ctxs; cs != nil {
		part, err := cs.hook.ExportPartition()
		if err != nil {
			return nil, err
		}
		st.Contexts = &contextsState{Partitioner: part, Replicas: map[string]json.RawMessage{}}
		for id, r := range cs.replicas {
			raw, err := referenceExportState(r.t)
			if err != nil {
				return nil, err
			}
			st.Contexts.Replicas[id] = raw
		}
	}
	return json.Marshal(st)
}

// exportHook is a ContextHook over a fixed partitioner payload, encoded
// as Tree.Export encodes it (json.Marshal escapes HTML), whose
// replicas take the selector sel builds.
type exportHook struct{ sel func() nominal.Selector }

func (h exportHook) Replica(ctx string) (nominal.Selector, int64) { return h.sel(), int64(len(ctx)) }
func (exportHook) WarmStart(replica, global nominal.Selector)     {}
func (exportHook) Born(string, *Tuner)                            {}
func (exportHook) Splits() []checkpoint.Record                    { return nil }
func (exportHook) ExportPartition() ([]byte, error) {
	return json.Marshal(map[string]any{"splits": []map[string]any{{"node": "b<0>", "dim": 0, "bin": 3}}})
}
func (exportHook) RestorePartition([]byte) error     { return nil }
func (exportHook) ReplaySplit(rec checkpoint.Record) {}

// exportSelectors are every selector nominal.NewByName builds.
var exportSelectors = []string{
	"egreedy:10", "greedygradient:10", "gradient", "optimum", "auc",
	"random", "roundrobin", "ucb1", "softmax:0.5",
}

// exportValues are the measurements the export tests feed: ordinary
// numbers, the float formats json switches between, and the non-finite
// values a tuner turns into failures.
var exportValues = []float64{
	3, 0.25, 17, 1e-7, 2.5e21, 123456.789, 0, math.Copysign(0, -1),
	math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64,
}

// exportAlgos is a roster whose names need JSON escaping and whose
// spaces give phase one every kind of strategy state.
func exportAlgos() []Algorithm {
	return []Algorithm{
		{Name: "plain"},
		{Name: "we<i>&\"rd\u2028\xff", Space: param.NewSpace(
			param.NewInterval("x", 0, 10), param.NewInterval("y", -1, 1))},
		{Name: "grid", Space: param.NewSpace(
			param.NewOrdinal("o", "lo", "mid", "hi"), param.NewRatioInt("n", 1, 64))},
	}
}

// exportCase names the tuner configuration an export test builds.
type exportCase struct {
	selector  string
	guard     bool
	drift     bool
	noHistory bool
}

func (c exportCase) String() string {
	return fmt.Sprintf("%s/guard=%t/drift=%t/history=%t", c.selector, c.guard, c.drift, !c.noHistory)
}

func (c exportCase) newSelector(tb testing.TB) nominal.Selector {
	tb.Helper()
	sel, err := nominal.NewByName(c.selector)
	if err != nil {
		tb.Fatal(err)
	}
	if c.guard {
		sel = guard.NewQuarantine(sel)
	}
	return sel
}

// buildContextual builds the global engine of a contextual engine with
// two replicas, b0 and "b<0>.lo" (a name that needs escaping), and
// returns the three tuners.
func (c exportCase) buildContextual(tb testing.TB, seed int64) []*Tuner {
	tb.Helper()
	var opts []Option
	if c.guard {
		opts = append(opts, WithGuard())
	}
	if c.drift {
		opts = append(opts, WithDriftWatchdog(DefaultDriftConfig()))
	}
	if c.noHistory {
		opts = append(opts, WithoutHistory())
	}
	g, err := NewContextualTuner(exportAlgos(), c.newSelector(tb), DefaultFactory, seed,
		exportHook{func() nominal.Selector { return c.newSelector(tb) }}, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	tuners := []*Tuner{g}
	for _, id := range []string{"b0", "b<0>.lo"} {
		r, err := g.Replica(id)
		if err != nil {
			tb.Fatal(err)
		}
		tuners = append(tuners, r)
	}
	return tuners
}

func (c exportCase) build(tb testing.TB, seed int64) *Tuner {
	tb.Helper()
	sel := c.newSelector(tb)
	var opts []Option
	if c.guard {
		opts = append(opts, WithGuard())
	}
	if c.drift {
		opts = append(opts, WithDriftWatchdog(DefaultDriftConfig()))
	}
	if c.noHistory {
		opts = append(opts, WithoutHistory())
	}
	tu, err := NewTuner(exportAlgos(), sel, DefaultFactory, seed, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return tu
}

// runOps drives tu with one iteration per op byte: the low two bits pick
// a measurement, a failure, or a non-finite value, the rest the value.
func runOps(tu *Tuner, ops []byte) {
	for _, op := range ops {
		tu.Next()
		v := exportValues[int(op>>2)%len(exportValues)]
		switch op & 3 {
		case 0, 1:
			tu.Observe(math.Abs(v) + float64(op))
		case 2:
			tu.Observe(v)
		default:
			kinds := []guard.Kind{guard.Panic, guard.Timeout, guard.Invalid}
			tu.ObserveFailure(guard.Failure{Kind: kinds[int(op>>2)%len(kinds)],
				Err: fmt.Errorf("failure %d", op), Penalty: v})
		}
	}
}

// checkExport fails unless ExportState writes json.Marshal's bytes.
func checkExport(tb testing.TB, name string, tu *Tuner) {
	tb.Helper()
	want, err := referenceExportState(tu.t)
	if err != nil {
		tb.Fatalf("%s: reference export: %v", name, err)
	}
	got, err := tu.t.ExportState()
	if err != nil {
		tb.Fatalf("%s: ExportState: %v", name, err)
	}
	if !bytes.Equal(got, want) {
		tb.Fatalf("%s: ExportState wrote\n%s\njson.Marshal writes\n%s", name, got, want)
	}
}

// TestExportStateMatchesJSON pins the hand-written snapshot encoder to
// json.Marshal of tunerState over every selector, guard on and off, the
// drift watchdog with queued probes, non-finite values, history on (a
// full 64-record tail) and off, and pinned iterations.
func TestExportStateMatchesJSON(t *testing.T) {
	ops := make([]byte, 3*stateHistoryTail)
	for i := range ops {
		ops[i] = byte(i*37 + 11)
	}
	for _, sel := range exportSelectors {
		for _, c := range []exportCase{
			{selector: sel},
			{selector: sel, guard: true, drift: true},
			{selector: sel, noHistory: true},
			{selector: sel, guard: true, noHistory: true},
		} {
			tu := c.build(t, 5)
			checkExport(t, c.String()+"/fresh", tu)
			runOps(tu, ops[:7])
			checkExport(t, c.String()+"/short", tu)
			runOps(tu, ops)
			checkExport(t, c.String()+"/long", tu)
			if len(tu.History()) == 0 == !c.noHistory {
				t.Fatalf("%s: history holds %d records", c, len(tu.History()))
			}
			if tu.t.pinnedIters == 0 {
				t.Fatalf("%s: the failure-heavy run pinned no iteration", c)
			}
			// Leases still out: their strategies hold a proposal.
			for range 3 {
				if _, err := tu.Lease(); err != nil {
					t.Fatal(err)
				}
			}
			checkExport(t, c.String()+"/leased", tu)

			// States a run does not reach on its own.
			st := tu.t
			st.lastValue = math.NaN()
			st.bestCfg = param.Config{math.Inf(-1), math.NaN()}
			if n := len(st.history); n > 0 {
				st.history[n-1].Value = math.NaN()
				st.history[n-1].Config = param.Config{}
			}
			if d := st.drift; d != nil {
				d.probeQ = append(d.probeQ, 2, 0, 1)
				d.cooldown, d.events, d.decays, d.outliers = 4, 3, 2, 1
				st.driftSeq = 3
			}
			checkExport(t, c.String()+"/poked", tu)
		}
	}
}

// FuzzExportState runs seeded operation sequences through a tuner whose
// selector, guard, drift watchdog and history keeping the first two
// bytes choose, and requires ExportState to equal json.Marshal. With the
// first byte's high bit set the tuner is a contextual engine's global
// one, and the operations alternate between it and two replicas, whose
// states its snapshot carries.
func FuzzExportState(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{7, 15, 3, 2, 1, 0, 255, 254, 128, 64})
	f.Add([]byte{2, 5, 11, 42, 43, 46, 47, 99, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3})
	f.Add([]byte{0x80, 7, 1, 2, 3, 44, 45, 46, 47, 200, 201, 202, 203})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 512 {
			return
		}
		c := exportCase{
			selector:  exportSelectors[int(data[0]&0x7f)%len(exportSelectors)],
			guard:     data[1]&1 != 0,
			drift:     data[1]&2 != 0,
			noHistory: data[1]&4 != 0,
		}
		if data[0]&0x80 == 0 {
			tu := c.build(t, int64(data[1]>>3))
			runOps(tu, data[2:])
			checkExport(t, c.String(), tu)
			return
		}
		tuners := c.buildContextual(t, int64(data[1]>>3))
		for i, op := range data[2:] {
			runOps(tuners[i%len(tuners)], []byte{op})
		}
		checkExport(t, c.String()+"/contextual", tuners[0])
	})
}

// TestSnapshotReencodesTouchedReplicas: a snapshot copies a replica's
// previous encoding only while no operation has touched the replica.
// Its payload for each replica must equal the replica's own export at
// that moment: after a lease alone (which moves the replica's RNG and
// proposals but journals nothing), and when a replica's completion takes
// the snapshot right after one that encoded the replica.
func TestSnapshotReencodesTouchedReplicas(t *testing.T) {
	dir := t.TempDir()
	c := exportCase{selector: "egreedy:10"}
	g, err := NewContextualTuner(exportAlgos(), c.newSelector(t), DefaultFactory, 3,
		exportHook{func() nominal.Selector { return c.newSelector(t) }}, WithCheckpoint(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	reps := map[string]*Tuner{}
	for _, id := range []string{"a", "b"} {
		if reps[id], err = g.Replica(id); err != nil {
			t.Fatal(err)
		}
	}
	lease := func(id string) Trial {
		tr, err := reps[id].LeaseN(1)
		if err != nil {
			t.Fatal(err)
		}
		return tr[0]
	}
	complete := func(id string, tr Trial) {
		if errs := reps[id].CompleteN([]TrialResult{{ID: tr.ID, Value: 1 + float64(tr.Algo)}}); errs[0] != nil {
			t.Fatal(errs[0])
		}
	}
	check := func(step string) {
		t.Helper()
		st, err := checkpoint.Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		var snap struct {
			Contexts struct {
				Replicas map[string]json.RawMessage `json:"replicas"`
			} `json:"contexts"`
		}
		if err := json.Unmarshal(st.Payload, &snap); err != nil {
			t.Fatal(err)
		}
		for id, r := range reps {
			want, err := referenceExportState(r.t)
			if err != nil {
				t.Fatal(err)
			}
			if got := snap.Contexts.Replicas[id]; !bytes.Equal(got, want) {
				t.Fatalf("%s: snapshot holds replica %s as\n%s\nits state is\n%s", step, id, got, want)
			}
		}
	}
	for i := 0; i < 5; i++ {
		ta, tb := lease("a"), lease("b")
		complete("b", tb) // its snapshot encodes a, leased since the last one
		check(fmt.Sprintf("round %d, after b", i))
		complete("a", ta) // a's snapshot, untouched since b's but for this completion
		check(fmt.Sprintf("round %d, after a", i))
	}
	if _, err := reps["b"].LeaseN(2); err != nil {
		t.Fatal(err)
	}
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check("a lease alone")
}
