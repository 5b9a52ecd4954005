package main

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"repro/internal/core"
	"repro/internal/ctxtune"
	"repro/internal/nominal"
	"repro/internal/tuned"
	"repro/internal/wire"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		t.Fatal(err)
	}
	return &bf
}

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to the metric and
// workload tables the program emits from.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d/%d metrics, the program %d/%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.fileBound || d.fileBound < d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
}

// TestSmoke runs every workload untraced and traced at about 2k trials
// through the functions the real run uses, and checks that every
// correctness check passes and every metric is emitted with its unit.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	tmp := t.TempDir()
	for _, w := range workloads {
		in := &inputs{seed: 7}
		if w.name == "strmatch_ctx" {
			in.sm = newSMInputs(7, 256<<10)
		}
		m, err := runWorkload(w, in, 2000, 9, tmp, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		res, failures := newResult(endToEndMetrics(m), endToEnd, []*measurement{m})
		checkResult(t, w.name+" untraced", res, failures, len(bf.EndToEnd))
		for _, d := range bf.EndToEnd {
			if v := res.Metrics[d.Name].Value; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, v)
			}
		}

		values, runs, err := traceRun(w, in, 2000, tmp, "")
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		res, failures = newResult(values, perLayer, runs)
		checkResult(t, w.name+" traced", res, failures, len(bf.PerLayer))
	}
}

func checkResult(t *testing.T, what string, res *result, failures []string, want int) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", what, res.Correct, res.Attempted, res.Failed, failures)
	}
	if len(res.Metrics) != want {
		t.Errorf("%s: %d metrics, want %d", what, len(res.Metrics), want)
	}
	for name, v := range res.Metrics {
		if !nameRE.MatchString(name) || !unitRE.MatchString(v.Unit) {
			t.Errorf("%s: bad metric name or unit %q %q", what, name, v.Unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: metric %s = %v", what, name, v.Value)
		}
	}
}

// frame builds one v3 frame with the given header fields and payload.
func frame(typ wire.Type, corr uint16, payload []byte) []byte {
	f := make([]byte, wire.HeaderSize, wire.HeaderSize+len(payload))
	binary.BigEndian.PutUint32(f[0:4], wire.Magic)
	f[4] = wire.Version
	f[5] = byte(typ)
	binary.BigEndian.PutUint16(f[6:8], corr)
	binary.BigEndian.PutUint32(f[8:12], uint32(len(payload)))
	return append(f, payload...)
}

func leaseResp(t *testing.T, firstID uint64) []byte {
	t.Helper()
	p := wire.PackedTrials{Epoch: 9, Trials: []wire.PackedTrial{{ID: firstID}, {ID: firstID + 1}}}
	return p.AppendEncode(nil)
}

func completeReq(firstID uint64) []byte {
	p := wire.PackedCompleteReq{Epoch: 9, Worker: 300, Results: []wire.PackedResult{{ID: firstID, Value: 2}}}
	return p.AppendEncode(nil)
}

type gotSpan struct {
	name       string
	id         uint64
	start, end int64
}

// feedChunks feeds stream to fn in chunks of 5 bytes, so frames and
// headers straddle calls, stamping chunk i with time at+i.
func feedChunks(stream []byte, at int64, fn func([]byte, int64) int) int64 {
	for len(stream) > 0 {
		n := min(5, len(stream))
		fn(stream[:n], at)
		stream = stream[n:]
		at++
	}
	return at
}

func TestFrameMatcherPipelinedOutOfOrder(t *testing.T) {
	var got []gotSpan
	m := newFrameMatcher(func(name string, id uint64, start, end int64) {
		got = append(got, gotSpan{name, id, start, end})
	})
	var reqs []byte
	reqs = append(reqs, frame(wire.TLeaseP, 1, (&wire.PackedLeaseReq{N: 2}).AppendEncode(nil))...)
	reqs = append(reqs, frame(wire.TCompleteP, 2, completeReq(40))...)
	reqs = append(reqs, frame(wire.TLeaseP, 3, (&wire.PackedLeaseReq{N: 2}).AppendEncode(nil))...)
	end := feedChunks(reqs, 100, m.read)

	// Answer 3, then 1, then 2, each in one write.
	m.write(frame(wire.TTrialsP, 3, leaseResp(t, 70)), 1000)
	m.write(frame(wire.TTrialsP, 1, leaseResp(t, 50)), 2000)
	m.write(frame(wire.TAckP, 2, (&wire.PackedAck{Applied: []uint64{40}}).AppendEncode(nil)), 3000)

	if len(got) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(got), got)
	}
	want := []struct {
		name string
		id   uint64
		end  int64
	}{{spServerLease, 70, 1000}, {spServerLease, 50, 2000}, {spServerComplete, 40, 3000}}
	for i, w := range want {
		g := got[i]
		if g.name != w.name || g.id != w.id || g.end != w.end {
			t.Errorf("span %d = %+v, want %s id %d ending %d", i, g, w.name, w.id, w.end)
		}
		if g.start < 100 || g.start >= end {
			t.Errorf("span %d starts at %d, outside the request stream [100, %d)", i, g.start, end)
		}
	}
	// The last request finished on the final chunk; the first earlier.
	if got[0].start != end-1 || got[1].start >= got[0].start {
		t.Errorf("request end times %d, %d: want the third request to end last, at %d", got[1].start, got[0].start, end-1)
	}
}

func TestFrameMatcherLockstepFIFO(t *testing.T) {
	var got []gotSpan
	m := newFrameMatcher(func(name string, id uint64, start, end int64) {
		got = append(got, gotSpan{name, id, start, end})
	})
	at := int64(0)
	for i := uint64(0); i < 3; i++ {
		at = feedChunks(frame(wire.THello, 0, []byte(`{}`)), at, m.read)
		m.write(frame(wire.THelloAck, 0, []byte(`{}`)), at)
		at = feedChunks(frame(wire.TLeaseP, 0, (&wire.PackedLeaseReq{N: 1}).AppendEncode(nil)), at, m.read)
		reqEnd := at - 1
		// A response split across two writes starts at the first.
		resp := frame(wire.TTrialsP, 0, leaseResp(t, 10*i+1))
		m.write(resp[:3], at+50)
		m.write(resp[3:], at+60)
		if n := len(got); n != int(i)+1 || got[n-1].id != 10*i+1 || got[n-1].start != reqEnd || got[n-1].end != at+50 {
			t.Fatalf("round %d: spans %+v, want lease %d from %d to %d", i, got, 10*i+1, reqEnd, at+50)
		}
		at += 100
	}
}

// bothEngine has the sharded and the contextual method sets.
type bothEngine struct {
	*core.ShardedEngine
	ctx *ctxtune.Engine
}

func (b *bothEngine) LeaseNFor(f []float64, n int) ([]core.Trial, error) {
	return b.ctx.LeaseNFor(f, n)
}
func (b *bothEngine) ContextCount() int { return b.ctx.ContextCount() }

func TestWrapEngineKeepsMethodSets(t *testing.T) {
	conc, err := core.NewConcurrentTuner(synthAlgos(), nominal.NewEpsilonGreedy(0.1), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := core.NewShardedEngine(synthAlgos(), nominal.NewEpsilonGreedy(0.1), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := ctxtune.New(ctxtune.Config{
		Algos:    synthAlgos(),
		Selector: func() nominal.Selector { return nominal.NewEpsilonGreedy(0.1) },
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	for _, c := range []struct {
		name                string
		eng                 tuned.Engine
		sharded, contextual bool
	}{
		{"concurrent", conc, false, false},
		{"sharded", sharded, true, false},
		{"contextual", ctx, false, true},
		{"both", &bothEngine{sharded, ctx}, true, true},
	} {
		w := wrapEngine(c.eng, newTracer())
		_, isSharded := w.(shardedEngine)
		_, isCtx := w.(contextualEngine)
		if isSharded != c.sharded || isCtx != c.contextual {
			t.Errorf("%s: wrapper sharded=%v contextual=%v, want %v %v", c.name, isSharded, isCtx, c.sharded, c.contextual)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{name: "trials_per_s", better: "higher", bound: 0.10}
	base5 := []float64{100, 101, 99, 100, 102}
	base10 := append(append([]float64(nil), base5...), base5...)
	for _, c := range []struct {
		base, next []float64
		want       string
	}{
		{base5, []float64{100, 99, 101, 100, 100}, "within"},
		{base5, []float64{80, 81, 79, 80, 82}, "worse"},
		// Five runs a side cannot support a gain claim, however clear.
		{base5, []float64{120, 121, 119, 120, 122}, "within"},
		{base10, []float64{120, 121, 119, 120, 122, 120, 121, 119, 120, 122}, "better"},
		{base5, []float64{60, 140, 100, 70, 130}, "unresolved"},
	} {
		if got := verdict(d, c.base, c.next); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.base, c.next, got, c.want)
		}
	}
}
