package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/nominal"
	"repro/internal/tenant"
	"repro/internal/tuned"
	"repro/internal/wire"
)

// Side rungs time layers a workload cannot reach from outside the
// program, by calling the layer's public functions directly.

// timePerOp runs op n times, reps times over, and returns the median ns
// per op and the mean allocations per op.
func timePerOp(n, reps int, op func()) (ns, allocs float64) {
	op() // first call pays lazy set-up
	per := make([]float64, reps)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		per[r] = float64(time.Since(start)) / float64(n)
	}
	runtime.ReadMemStats(&after)
	return median(per), float64(after.Mallocs-before.Mallocs) / float64(n*reps)
}

// wireRung times frame encode (AppendFrame) and decode (ReadFrameBuf +
// DecodeFrom) of 16-trial lease responses and completion requests, in
// the packed v3 encoding and its JSON twin.
func wireRung(seed int64, out map[string]float64) {
	r := rand.New(rand.NewSource(seed))
	var (
		pt wire.PackedTrials
		pc wire.PackedCompleteReq
		jt wire.LeaseNResp
		jc wire.CompleteNReq
	)
	pt.Epoch, jt.Epoch = 1<<40, 1<<40
	pc.Epoch, jc.Epoch = 1<<40, 1<<40
	for i := 0; i < 16; i++ {
		id := uint64(1e6 + i)
		var cfg []float64
		if i%2 == 1 {
			cfg = []float64{1 + r.Float64()}
		}
		pt.Trials = append(pt.Trials, wire.PackedTrial{ID: id, Algo: i % 2, DeadlineMS: 1.7e12, Config: cfg})
		jt.Trials = append(jt.Trials, wire.Trial{ID: id, Algo: i % 2, DeadlineMS: 1.7e12, Config: cfg})
		v := 2 + r.Float64()
		pc.Results = append(pc.Results, wire.PackedResult{ID: id, Value: v})
		jc.Results = append(jc.Results, wire.Result{ID: id, Value: v})
	}
	cases := []struct {
		name string
		typ  wire.Type
		msg  wire.Payload
		into wire.Payload
		n    int
	}{
		{"wire.packed.trials16", wire.TTrialsP, &pt, &wire.PackedTrials{}, 5000},
		{"wire.packed.complete16", wire.TCompleteP, &pc, &wire.PackedCompleteReq{}, 5000},
		{"wire.json.trials16", wire.TTrials, &jt, &wire.LeaseNResp{}, 500},
		{"wire.json.complete16", wire.TCompleteN, &jc, &wire.CompleteNReq{}, 500},
	}
	for _, c := range cases {
		var frame []byte
		encNS, encAllocs := timePerOp(c.n, 5, func() {
			frame, _ = wire.AppendFrame(frame[:0], wire.Version, c.typ, 1, c.msg)
		})
		var (
			rd   bytes.Reader
			rbuf []byte
		)
		decNS, decAllocs := timePerOp(c.n, 5, func() {
			rd.Reset(frame)
			_, _, payload, nbuf, err := wire.ReadFrameBuf(&rd, rbuf)
			rbuf = nbuf
			if err == nil {
				err = c.into.DecodeFrom(payload)
			}
			if err != nil {
				panic(err) // our own well-formed frame: only a codec bug fails here
			}
		})
		out[c.name+".encode_ns"] = encNS
		out[c.name+".decode_ns"] = decNS
		out[c.name+".allocs"] = encAllocs + decAllocs
	}
}

// journalRung times Journal.Append (write + fsync) one record at a time
// and in groups of 16 buffered appends plus one Sync, in dir.
func journalRung(dir string, out map[string]float64) error {
	j, err := checkpoint.OpenJournal(dir, 0)
	if err != nil {
		return err
	}
	defer j.Close()
	rec := checkpoint.Record{Algo: "ratio", Config: []checkpoint.F{1.25}, Value: 2.25, Trial: 1}
	single := make([]float64, 400)
	for i := range single {
		rec.Iter, rec.Trial = i, uint64(i+1)
		start := time.Now()
		if err := j.Append(rec); err != nil {
			return err
		}
		single[i] = float64(time.Since(start)) / 1e3
	}
	group := make([]float64, 60)
	for i := range group {
		start := time.Now()
		for k := 0; k < 16; k++ {
			rec.Iter++
			if err := j.AppendBuffered(rec); err != nil {
				return err
			}
		}
		if err := j.Sync(); err != nil {
			return err
		}
		group[i] = float64(time.Since(start)) / 1e3
	}
	out["journal.append_p50_us"] = quantile(single, 0.50)
	out["journal.append_p99_us"] = quantile(single, 0.99)
	out["journal.group16_p50_us"] = median(group)
	return nil
}

// selectorRung times one ε-greedy Select plus Report over 2 and 8 arms.
func selectorRung(seed int64, out map[string]float64) {
	for _, arms := range []int{2, 8} {
		sel := nominal.NewEpsilonGreedy(0.10)
		sel.Init(arms)
		r := rand.New(rand.NewSource(seed))
		ns, _ := timePerOp(40000, 5, func() {
			a := sel.Select(r)
			sel.Report(a, float64(a+1)+r.Float64())
		})
		out[fmt.Sprintf("selector.egreedy%d_ns", arms)] = ns
	}
}

// tenantAcquireRung times Registry.Acquire plus release of a resident
// tenant.
func tenantAcquireRung(seed int64, out map[string]float64) error {
	reg, err := tenant.NewRegistry(tenant.Config{Roster: synthRoster})
	if err != nil {
		return err
	}
	if err := reg.Register(tenant.Spec{Name: "t0", Workload: "synthetic", Engine: core.EngineSpec{Seed: seed}}); err != nil {
		return err
	}
	var acqErr error
	ns, _ := timePerOp(50000, 5, func() {
		_, _, release, err := reg.Acquire("t0")
		if err != nil {
			acqErr = err
			return
		}
		release()
	})
	out["tenant.acquire_ns"] = ns
	return acqErr
}

// restartRung runs a small durable_tenants-shaped registry in dir
// in-process — two journalled tenants, trials leased and completed on
// the engines directly — then reopens it, for the workloads whose own
// state is not on disk. It returns the restart time and disk bytes per
// trial.
func restartRung(seed int64, dir string) (restartMS, diskPerTrial float64, err error) {
	reg, err := tenant.NewRegistry(tenant.Config{Root: dir, Roster: synthRoster})
	if err != nil {
		return 0, 0, err
	}
	const perTenant = 320
	served := make([]int, len(tenantNames))
	for i, name := range tenantNames {
		if err := reg.Register(tenant.Spec{Name: name, Workload: "synthetic", Engine: core.EngineSpec{Seed: seed + int64(i)}}); err != nil {
			return 0, 0, err
		}
		eng, _, release, err := reg.Acquire(name)
		if err != nil {
			return 0, 0, err
		}
		err = driveEngine(eng, perTenant, 16)
		release()
		if err != nil {
			return 0, 0, err
		}
		served[i] = eng.Iterations()
	}
	d, size, err := reopenDurable(dir, served)
	if err != nil {
		return 0, 0, err
	}
	return float64(d) / 1e6, float64(size) / float64(perTenant*len(tenantNames)), nil
}

// driveEngine leases and completes trials trials in batches directly on
// an engine, with the synthetic measurement.
func driveEngine(eng tuned.Engine, trials, batch int) error {
	results := make([]core.TrialResult, 0, batch)
	for done := 0; done < trials; {
		ts, err := eng.LeaseN(min(batch, trials-done))
		if err != nil {
			return err
		}
		results = results[:0]
		for _, tr := range ts {
			v, _, _ := synthMeasure(tr)
			results = append(results, core.TrialResult{ID: tr.ID, Value: v})
		}
		for _, err := range eng.CompleteN(results) {
			if err != nil {
				return err
			}
		}
		done += len(ts)
	}
	return nil
}

// durableEngineRung times lease and completion calls on one engine
// built from a default tenant spec with its checkpoint directory in dir
// — the engine durable_tenants' registry builds, which the benchmark
// cannot wrap there.
func durableEngineRung(seed int64, dir string, tr *tracer) (wallNS int64, err error) {
	eng, err := core.EngineSpec{Seed: seed}.Build(synthAlgos(), nominal.NewEpsilonGreedy(0.10), nil, dir)
	if err != nil {
		return 0, err
	}
	timed := wrapEngine(eng, tr)
	if err := driveEngine(timed, 160, 16); err != nil { // warm-up
		return 0, err
	}
	tr.on.Store(true)
	start := time.Now()
	err = driveEngine(timed, 800, 16)
	wallNS = int64(time.Since(start))
	tr.on.Store(false)
	return wallNS, err
}
