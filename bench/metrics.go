package main

import (
	"fmt"
	"os"
)

// metricDef is one metric as BENCHMARK.json lists it; per-layer metrics
// have no bounds.
//
// bound is the share of the parent's median a (metric, workload) pair may
// worsen by before -compare calls it a regression. fileBound is the bound
// BENCHMARK.json carries. That file has one bound per metric and needs
// every workload's run-to-run spread to fit within it, so fileBound
// covers the metric's noisiest workload. Only allocations are steady
// enough on the reference box for a tight file bound (README.md).
//
// A metric with only set is defined on that workload alone: the others
// emit a value so every run has every metric, and -compare gives no
// verdict on it there.
type metricDef struct {
	name, unit, better string
	bound, fileBound   float64
	only               string
}

// endToEnd are the metrics a user of the service sees, from untraced
// runs.
var endToEnd = []metricDef{
	{name: "trials_per_s", unit: "trials/s", better: "higher", bound: 0.10, fileBound: 0.25},
	{name: "service_p50_us", unit: "us", better: "lower", bound: 0.10, fileBound: 0.25},
	{name: "cpu_us_per_trial", unit: "us", better: "lower", bound: 0.10, fileBound: 0.25},
	{name: "allocs_per_trial", unit: "allocs", better: "lower", bound: 0.03, fileBound: 0.03},
	{name: "rss_mb", unit: "MB", better: "lower", bound: 0.10, fileBound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.10, fileBound: 0.25},
	{name: "overhead_pct", unit: "%", better: "lower", bound: 0.10, fileBound: 0.25, only: "strmatch_ctx"},
	{name: "tuned_kernel_ms", unit: "ms", better: "lower", bound: 0.10, fileBound: 0.25},
}

// perLayer are the traced run's metrics, one group per module.
var perLayer = []metricDef{
	{name: "client.lease_p50_us", unit: "us", better: "lower"},
	{name: "client.lease_p99_us", unit: "us", better: "lower"},
	{name: "client.complete_p50_us", unit: "us", better: "lower"},
	{name: "client.complete_p99_us", unit: "us", better: "lower"},
	{name: "transport.self_p50_us", unit: "us", better: "lower"},
	{name: "server.residence_p50_us", unit: "us", better: "lower"},
	{name: "server.residence_p99_us", unit: "us", better: "lower"},
	{name: "server.reads_per_req", unit: "count", better: "lower"},
	{name: "server.writes_per_req", unit: "count", better: "lower"},
	{name: "wire.bytes_per_trial", unit: "B", better: "lower"},
	{name: "engine.lease_p50_us", unit: "us", better: "lower"},
	{name: "engine.lease_p99_us", unit: "us", better: "lower"},
	{name: "engine.complete_p50_us", unit: "us", better: "lower"},
	{name: "engine.complete_p99_us", unit: "us", better: "lower"},
	{name: "engine.busy_frac", unit: "ratio", better: "lower"},
	{name: "ctx.lease_p50_us", unit: "us", better: "lower"},
	{name: "ctx.complete_p50_us", unit: "us", better: "lower"},
	{name: "ctx.contexts", unit: "count", better: "higher"},
	{name: "wire.packed.trials16.encode_ns", unit: "ns", better: "lower"},
	{name: "wire.packed.trials16.decode_ns", unit: "ns", better: "lower"},
	{name: "wire.packed.trials16.allocs", unit: "allocs", better: "lower"},
	{name: "wire.packed.complete16.encode_ns", unit: "ns", better: "lower"},
	{name: "wire.packed.complete16.decode_ns", unit: "ns", better: "lower"},
	{name: "wire.packed.complete16.allocs", unit: "allocs", better: "lower"},
	{name: "wire.json.trials16.encode_ns", unit: "ns", better: "lower"},
	{name: "wire.json.trials16.decode_ns", unit: "ns", better: "lower"},
	{name: "wire.json.trials16.allocs", unit: "allocs", better: "lower"},
	{name: "wire.json.complete16.encode_ns", unit: "ns", better: "lower"},
	{name: "wire.json.complete16.decode_ns", unit: "ns", better: "lower"},
	{name: "wire.json.complete16.allocs", unit: "allocs", better: "lower"},
	{name: "journal.append_p50_us", unit: "us", better: "lower"},
	{name: "journal.append_p99_us", unit: "us", better: "lower"},
	{name: "journal.group16_p50_us", unit: "us", better: "lower"},
	{name: "journal.disk_bytes_per_trial", unit: "B", better: "lower"},
	{name: "tenant.restart_ms", unit: "ms", better: "lower"},
	{name: "tenant.acquire_ns", unit: "ns", better: "lower"},
	{name: "selector.egreedy2_ns", unit: "ns", better: "lower"},
	{name: "selector.egreedy8_ns", unit: "ns", better: "lower"},
	{name: "kernel.p50_ms", unit: "ms", better: "lower"},
	{name: "kernel.p99_ms", unit: "ms", better: "lower"},
	{name: "kernel.regret_pct", unit: "%", better: "lower"},
	{name: "kernel.best_share", unit: "ratio", better: "higher"},
	{name: "runtime.gc_per_mtrial", unit: "count", better: "lower"},
	{name: "runtime.heap_alloc_b_per_trial", unit: "B", better: "lower"},
	{name: "runtime.gc_cpu_frac", unit: "ratio", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}

// fastShare is how far into the fast end of the timed phase's windows the
// wall-clock metrics are read. Interference from other tenants of a
// shared machine only ever slows a window: on a 2-vCPU VM, windows of one
// run differ by up to 2× while the code is the same. The fast tenth of
// windows shows what the code costs; a change that slows every window
// still moves it.
const fastShare = 0.10

// endToEndMetrics derives the end-to-end metrics of an untraced run.
// Rates, latencies, CPU, overhead and the tuned kernel time are read at
// the fast end of the timed phase's windows (see fastShare), the tuned
// kernel time over the final half's windows only.
func endToEndMetrics(m *measurement) map[string]float64 {
	var tps, p50, cpu, overhead, tuned []float64
	wins := m.windows()
	workers := float64(len(m.workers))
	for k, w := range wins {
		tps = append(tps, float64(w.trials)/w.seconds)
		p50 = append(p50, quantile(w.service, 0.50))
		cpu = append(cpu, float64(w.cpuNS)/1e3/float64(w.trials))
		// The paper's framing: the time workers spend outside the kernel
		// over the kernel's time. Only strmatch_ctx's kernel takes real
		// time; a synthetic kernel's is the cost it reports, so there the
		// value follows from trials_per_s and tuned_kernel_ms.
		overhead = append(overhead, 100*(workers*w.seconds*1e9-float64(w.kernelNS))/(w.valueMS*1e6))
		if k >= len(wins)/2 {
			tuned = append(tuned, w.valueMS/float64(w.trials))
		}
	}
	return map[string]float64{
		"trials_per_s":     quantile(tps, 1-fastShare),
		"service_p50_us":   quantile(p50, fastShare),
		"cpu_us_per_trial": quantile(cpu, fastShare),
		"allocs_per_trial": float64(m.after.mallocs-m.before.mallocs) / float64(m.trials),
		"rss_mb":           peakRSSMB(),
		"setup_s":          median(m.setupS),
		"overhead_pct":     quantile(overhead, fastShare),
		"tuned_kernel_ms":  quantile(tuned, fastShare),
	}
}

// traceRun measures the per-layer metrics of workload w: an untraced run
// and a traced run of a quarter budget each, then the side rungs for the
// layers this workload does not reach. Spans go to spansPath when set.
func traceRun(w *workload, in *inputs, budget int, tmp, spansPath string) (map[string]float64, []*measurement, error) {
	base, err := runWorkload(w, in, budget/4, 1, tmp, nil)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	m, err := runWorkload(w, in, budget/4, 1, tmp, tr)
	if err != nil {
		return nil, nil, err
	}
	runs := []*measurement{base, m}
	out := make(map[string]float64)

	lease, complete := tr.durations(spClientLease), tr.durations(spClientComplete)
	out["client.lease_p50_us"] = quantile(lease, 0.50)
	out["client.lease_p99_us"] = quantile(lease, 0.99)
	out["client.complete_p50_us"] = quantile(complete, 0.50)
	out["client.complete_p99_us"] = quantile(complete, 0.99)
	self := append(tr.selfTimes(spClientLease, spServerLease), tr.selfTimes(spClientComplete, spServerComplete)...)
	out["transport.self_p50_us"] = median(self)
	residence := append(tr.durations(spServerLease), tr.durations(spServerComplete)...)
	out["server.residence_p50_us"] = quantile(residence, 0.50)
	out["server.residence_p99_us"] = quantile(residence, 0.99)
	out["server.reads_per_req"] = float64(tr.reads.Load()) / float64(tr.requests.Load())
	out["server.writes_per_req"] = float64(tr.writes.Load()) / float64(tr.responses.Load())
	out["wire.bytes_per_trial"] = float64(tr.bytes.Load()) / float64(m.trials)

	// The engine layer: wrapped in place, except on durable_tenants,
	// whose registry builds its own engines.
	etr, ewall := tr, m.wallNS
	if m.durable {
		etr = newTracer()
		dir, err := os.MkdirTemp(tmp, "engine-")
		if err != nil {
			return nil, nil, err
		}
		ewall, err = durableEngineRung(in.seed, dir, etr)
		os.RemoveAll(dir)
		if err != nil {
			return nil, nil, fmt.Errorf("engine rung: %w", err)
		}
	}
	elease, ecomplete := etr.durations(spEngineLease), etr.durations(spEngineComplete)
	out["engine.lease_p50_us"] = quantile(elease, 0.50)
	out["engine.lease_p99_us"] = quantile(elease, 0.99)
	out["engine.complete_p50_us"] = quantile(ecomplete, 0.50)
	out["engine.complete_p99_us"] = quantile(ecomplete, 0.99)
	out["engine.busy_frac"] = float64(etr.busyNS(spEngineLease, spEngineComplete)) / float64(ewall)

	// The contextual engine and the kernel: in place on strmatch_ctx,
	// otherwise from a small traced strmatch_ctx run on 64 KiB texts.
	ctr, km := tr, m
	if !m.contextual {
		ctr = newTracer()
		mini := &inputs{seed: in.seed, sm: newSMInputs(in.seed, 64<<10)}
		km, err = runWorkload(workloadByName("strmatch_ctx"), mini, 1000, 1, tmp, ctr)
		if err != nil {
			return nil, nil, fmt.Errorf("strmatch rung: %w", err)
		}
		runs = append(runs, km)
	}
	out["ctx.lease_p50_us"] = median(ctr.durations(spEngineLease))
	out["ctx.complete_p50_us"] = median(ctr.durations(spEngineComplete))
	out["ctx.contexts"] = float64(km.contexts)
	kms := km.kernelMS()
	out["kernel.p50_ms"] = quantile(kms, 0.50)
	out["kernel.p99_ms"] = quantile(kms, 0.99)
	out["kernel.regret_pct"] = 100 * km.sum(func(ws *workerStats) float64 { return ws.tailRegret }) /
		km.sum(func(ws *workerStats) float64 { return ws.tailOracle })
	out["kernel.best_share"] = km.sum(func(ws *workerStats) float64 { return float64(ws.tailBest) }) /
		km.sum(func(ws *workerStats) float64 { return float64(ws.tailN) })

	dir, err := os.MkdirTemp(tmp, "journal-")
	if err != nil {
		return nil, nil, err
	}
	err = journalRung(dir, out)
	os.RemoveAll(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("journal rung: %w", err)
	}
	if m.durable {
		out["journal.disk_bytes_per_trial"] = m.diskPerTrial
		out["tenant.restart_ms"] = m.restartMS
	} else {
		dir, err := os.MkdirTemp(tmp, "restart-")
		if err != nil {
			return nil, nil, err
		}
		restart, disk, err := restartRung(in.seed, dir)
		os.RemoveAll(dir)
		if err != nil {
			return nil, nil, fmt.Errorf("restart rung: %w", err)
		}
		out["tenant.restart_ms"] = restart
		out["journal.disk_bytes_per_trial"] = disk
	}
	if err := tenantAcquireRung(in.seed, out); err != nil {
		return nil, nil, fmt.Errorf("tenant rung: %w", err)
	}
	selectorRung(in.seed, out)
	wireRung(in.seed, out)

	// The Go runtime, from the untraced run.
	bt := float64(base.trials)
	out["runtime.gc_per_mtrial"] = float64(base.after.numGC-base.before.numGC) / bt * 1e6
	out["runtime.heap_alloc_b_per_trial"] = float64(base.after.totalAlloc-base.before.totalAlloc) / bt
	// GC CPU time over the process's CPU time. The runtime accounts GC CPU
	// per finished cycle, so a run too short to collect reads 0.
	out["runtime.gc_cpu_frac"] = (base.after.gcCPU - base.before.gcCPU) / (float64(base.after.cpuNS-base.before.cpuNS) / 1e9)
	out["trace.overhead_pct"] = 100 * (1 - endToEndMetrics(m)["trials_per_s"]/endToEndMetrics(base)["trials_per_s"])

	if spansPath != "" {
		if err := tr.writeSpans(spansPath); err != nil {
			return nil, nil, err
		}
	}
	return out, runs, nil
}

// result is the one-line JSON a single-workload run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult(values map[string]float64, defs []metricDef, runs []*measurement) (*result, []string) {
	res := &result{Metrics: make(map[string]metricValue, len(defs))}
	var failures []string
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	for _, m := range runs {
		res.Attempted += m.calls
		res.Failed += m.failed
		failures = append(failures, m.failures...)
	}
	res.Correct = len(failures) == 0
	return res, failures
}
