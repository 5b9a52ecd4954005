package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ctxtune"
	"repro/internal/nominal"
	"repro/internal/param"
	"repro/internal/tenant"
	"repro/internal/tuned"
)

// workload is one traffic mix. Every workload is a closed loop: two
// workers, each blocking on every reply, lease a batch, measure it and
// complete it over loopback TCP against a server in the same process.
type workload struct {
	name string
	// budget is the workload's fixed trial budget, sized to take about
	// refSeconds on the reference box (see README.md). Both commits of a
	// comparison run the same number of trials, so memory and tuning
	// quality are compared at the same iteration count.
	budget int
	batch  int
	build  func(in *inputs, dir string, tr *tracer) (*rig, error)
}

// refSeconds is the run length the budgets are sized for. A run of other
// length scales every budget by seconds / refSeconds.
const refSeconds = 20

func (w *workload) budgetFor(seconds int) int {
	return int(int64(w.budget) * int64(seconds) / refSeconds)
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json and
// README.md say why each exists.
var workloads = []*workload{
	{
		name:   "hot_pipelined",
		budget: 6_000_000,
		batch:  16,
		build:  func(in *inputs, _ string, tr *tracer) (*rig, error) { return buildSynthetic(in, tr, true) },
	},
	{
		name:   "lockstep_b1",
		budget: 900_000,
		batch:  1,
		build:  func(in *inputs, _ string, tr *tracer) (*rig, error) { return buildSynthetic(in, tr, false) },
	},
	{
		name:   "durable_tenants",
		budget: 400_000,
		batch:  16,
		build:  buildDurable,
	},
	{
		name:   "strmatch_ctx",
		budget: 100_000,
		batch:  1,
		build:  buildStrmatch,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// inputs is everything a run derives from its seed before set-up.
type inputs struct {
	seed int64
	sm   *smInputs // strmatch_ctx only
}

// engineView is what the correctness checks read off an engine.
type engineView interface {
	Iterations() int
	Counts() []int
	Best() (algo int, cfg param.Config, value float64)
}

// oracle is the best arm for one worker's inputs and its cost.
type oracle struct {
	arm  int
	cost float64
}

// measureFunc runs one leased trial. It returns the value reported to
// the tuner (ms) and the real kernel time in ns (0 for a synthetic
// kernel, whose reported cost is virtual).
type measureFunc func(tr core.Trial) (value float64, kernelNS int64, err error)

// rig is one set-up of a workload: a server, its engines, and the
// clients the workers drive.
type rig struct {
	srv      *tuned.Server
	clients  []*tuned.Client // per worker; hot_pipelined repeats one
	measure  []measureFunc   // per worker
	oracles  []oracle        // per worker
	engineOf []int           // worker → index into engines()
	engines  func() ([]engineView, error)
	// shares splits the trial budget across workers (nil = evenly).
	shares []float64
	// synthetic marks the synthetic roster, whose best value is known.
	synthetic bool
	// contexts reports the contextual engine's context count (nil when
	// the engine is not contextual).
	contexts func() int
	// restart reopens a durable rig's state in a fresh registry, checks
	// that every tenant resumes where it stopped, and returns how long
	// that took and the bytes on disk.
	restart func(served []int) (time.Duration, int64, error)
	closers []func()
}

func (r *rig) close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
	r.closers = nil
}

// serve starts the rig's server on a loopback listener, wrapped for
// tracing when tr is set, and returns its address.
func (r *rig) serve(tr *tracer) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	if tr != nil {
		ln = &tracedListener{Listener: ln, tr: tr}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.srv.Serve(ln)
	}()
	r.closers = append(r.closers, func() {
		r.srv.Close()
		<-done
	})
	return addr, nil
}

func (r *rig) dial(addr string, opts ...tuned.ClientOption) (*tuned.Client, error) {
	c, err := tuned.Dial(addr, opts...)
	if err != nil {
		return nil, err
	}
	r.closers = append(r.closers, func() { c.Close() })
	return c, nil
}

// synthAlgos is the synthetic roster: a fixed arm costing 2 and a ratio
// arm costing 1+x, x ∈ [1, 2], so both tuning phases run and the best
// value is exactly 2.
func synthAlgos() []core.Algorithm {
	return []core.Algorithm{
		{Name: "fixed"},
		{Name: "ratio", Space: param.NewSpace(param.NewRatio("x", 1, 2))},
	}
}

func synthMeasure(tr core.Trial) (float64, int64, error) {
	if tr.Algo == 0 {
		return 2, 0, nil
	}
	return 1 + tr.Config[0], 0, nil
}

func synthRoster(string) ([]core.Algorithm, error) { return synthAlgos(), nil }

// buildSynthetic sets up hot_pipelined (pipelined) or lockstep_b1: one
// sharded engine configured as atune-serve builds it, minus the
// per-trial history no reader needs.
func buildSynthetic(in *inputs, tr *tracer, pipelined bool) (*rig, error) {
	eng, err := core.NewShardedEngine(synthAlgos(), nominal.NewEpsilonGreedy(0.10), nil, in.seed,
		core.WithShards(1), core.WithMaxInFlight(64), core.WithoutHistory())
	if err != nil {
		return nil, err
	}
	var served tuned.Engine = eng
	if tr != nil {
		served = wrapEngine(eng, tr)
	}
	r := &rig{
		srv:       tuned.NewServer(served),
		measure:   []measureFunc{synthMeasure, synthMeasure},
		oracles:   []oracle{{0, 2}, {0, 2}},
		engineOf:  []int{0, 0},
		engines:   func() ([]engineView, error) { return []engineView{eng}, nil },
		synthetic: true,
	}
	addr, err := r.serve(tr)
	if err != nil {
		return nil, err
	}
	if pipelined {
		c, err := r.dial(addr, tuned.WithPipeline(0))
		if err != nil {
			r.close()
			return nil, err
		}
		r.clients = []*tuned.Client{c, c}
		return r, nil
	}
	for i := 0; i < 2; i++ {
		c, err := r.dial(addr)
		if err != nil {
			r.close()
			return nil, err
		}
		r.clients = append(r.clients, c)
	}
	return r, nil
}

var tenantNames = []string{"t0", "t1"}

// buildDurable sets up durable_tenants: a tenant registry rooted in dir
// with two tenants on spec defaults (journal, snapshot every 100 trials,
// full history), one pipelined client per tenant.
func buildDurable(in *inputs, dir string, tr *tracer) (*rig, error) {
	reg, err := tenant.NewRegistry(tenant.Config{Root: dir, Roster: synthRoster})
	if err != nil {
		return nil, err
	}
	for i, name := range tenantNames {
		spec := tenant.Spec{Name: name, Workload: "synthetic", Engine: core.EngineSpec{Seed: in.seed + int64(i)}}
		if err := reg.Register(spec); err != nil {
			return nil, err
		}
	}
	r := &rig{
		srv:       tuned.NewTenantServer(reg),
		measure:   []measureFunc{synthMeasure, synthMeasure},
		oracles:   []oracle{{0, 2}, {0, 2}},
		engineOf:  []int{0, 1},
		synthetic: true,
	}
	r.engines = func() ([]engineView, error) { return acquireAll(reg) }
	r.restart = func(served []int) (time.Duration, int64, error) { return reopenDurable(dir, served) }
	addr, err := r.serve(tr)
	if err != nil {
		return nil, err
	}
	for _, name := range tenantNames {
		c, err := r.dial(addr, tuned.WithTenant(name), tuned.WithPipeline(0))
		if err != nil {
			r.close()
			return nil, err
		}
		r.clients = append(r.clients, c)
	}
	return r, nil
}

// reopenDurable opens a fresh registry on dir and acquires every tenant,
// which replays its journal. It checks that both tenants are rediscovered
// and resume at exactly the iterations they served, and returns how long
// the reopen took and the bytes under dir.
func reopenDurable(dir string, served []int) (time.Duration, int64, error) {
	start := time.Now()
	fresh, err := tenant.NewRegistry(tenant.Config{Root: dir, Roster: synthRoster})
	if err != nil {
		return 0, 0, err
	}
	engs, err := acquireAll(fresh)
	elapsed := time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	if got := fresh.Names(); len(got) != len(tenantNames) {
		return 0, 0, fmt.Errorf("restart rediscovered tenants %v, want %v", got, tenantNames)
	}
	for i, e := range engs {
		if e.Iterations() != served[i] {
			return 0, 0, fmt.Errorf("tenant %s resumed at %d iterations, served %d", tenantNames[i], e.Iterations(), served[i])
		}
	}
	size, err := dirSize(dir)
	return elapsed, size, err
}

// acquireAll returns every tenant's engine in tenantNames order. The
// registry has no residency cap, so engines stay live after release.
func acquireAll(reg *tenant.Registry) ([]engineView, error) {
	var out []engineView
	for _, name := range tenantNames {
		eng, _, release, err := reg.Acquire(name)
		if err != nil {
			return nil, err
		}
		release()
		out = append(out, eng)
	}
	return out, nil
}

func dirSize(dir string) (int64, error) {
	var size int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			size += info.Size()
		}
		return nil
	})
	return size, err
}

// Feature vectors of the two strmatch_ctx input classes, and each
// class's share of the trial budget: a DNA search takes about three
// times a Bible search, so with these shares both workers finish
// together instead of one running alone at the end.
var (
	smFeatures = [][]float64{{1}, {100}}
	smShares   = []float64{0.75, 0.25}
)

// buildStrmatch sets up strmatch_ctx as ablation A16 does: the contextual
// engine over the eight matchers, windowed ε-greedy replicas and a
// one-bucket split tree; one lockstep client per input class.
func buildStrmatch(in *inputs, _ string, tr *tracer) (*rig, error) {
	eng, err := ctxtune.New(ctxtune.Config{
		Algos: matcherAlgos(),
		Selector: func() nominal.Selector {
			return &nominal.EpsilonGreedy{Eps: 0.10, RecencyWindow: 64}
		},
		Seed:        in.seed,
		Partitioner: ctxtune.NewTree(1, 64, 1.5),
	})
	if err != nil {
		return nil, err
	}
	var served tuned.Engine = eng
	if tr != nil {
		served = wrapEngine(eng, tr)
	}
	r := &rig{
		srv:      tuned.NewServer(served),
		engineOf: []int{0, 0},
		engines:  func() ([]engineView, error) { return []engineView{eng}, nil },
		shares:   smShares,
		contexts: eng.ContextCount,
		closers:  []func(){func() { eng.Close() }},
	}
	addr, err := r.serve(tr)
	if err != nil {
		r.close()
		return nil, err
	}
	for class := range smFeatures {
		c, err := r.dial(addr, tuned.WithFeatures(smFeatures[class]))
		if err != nil {
			r.close()
			return nil, err
		}
		r.clients = append(r.clients, c)
		r.measure = append(r.measure, in.sm.measure(class))
		r.oracles = append(r.oracles, in.sm.oracles[class])
	}
	return r, nil
}

// windows is how many equal trial-count windows a timed phase is split
// into, about 0.2 s each at the reference run length. Rates and latencies
// are read at the fast end of the windows (see fastShare), so interference
// from outside the process, which comes in bursts of seconds, moves some
// windows rather than the result.
const windows = 100

// minWindowTrials keeps a short phase (a smoke test's) from being split
// finer than its batches, and each window long next to the kernel calls
// that straddle its edges. A full run's windows hold 950 trials or more.
const minWindowTrials = 256

// clock marks the window boundaries of a timed phase: boundary k is
// passed when the phase's completed-trial count first reaches k·seg.
type clock struct {
	seg  int64
	done atomic.Int64

	mu    sync.Mutex
	marks [windows + 1]mark
}

type mark struct {
	ok    bool
	at    time.Time
	cpuNS int64
	n     int64 // trials completed when the mark was taken
}

func newClock(total int) *clock {
	c := &clock{seg: max(int64(total)/windows, minWindowTrials)}
	c.marks[0] = mark{ok: true, at: time.Now(), cpuNS: cpuNS()}
	return c
}

// completed records n more completed trials and returns the window they
// fall in, marking every boundary the count passed.
func (c *clock) completed(n int) int {
	now := c.done.Add(int64(n))
	before := now - int64(n)
	if first, last := before/c.seg+1, min(now/c.seg, windows); first <= last {
		m := mark{ok: true, at: time.Now(), cpuNS: cpuNS(), n: now}
		c.mu.Lock()
		for j := first; j <= last; j++ {
			c.marks[j] = m
		}
		c.mu.Unlock()
	}
	return int(min((now-1)/c.seg, windows-1))
}

// workerStats accumulates one worker's timed phase. Per-window sums are
// indexed by the clock's window.
type workerStats struct {
	trials     int
	service    []float64 // µs blocked on the tuner per batch
	serviceWin []int32   // the window of each service sample
	kernelMS   []float64 // real kernel time per trial (real kernels only)
	valueMS    [windows]float64
	kernelNS   [windows]int64 // real kernel time
	winTrials  [windows]int
	tailBest   int     // final-half trials on the oracle's best arm
	tailN      int     // final-half trials
	tailRegret float64 // Σ (value − oracle cost) over the final half
	tailOracle float64 // Σ oracle cost over the final half
	applied    int
	dropped    int
	calls      int
	fail       int
	err        error
}

// work runs quota trials on worker w. clk is nil during warm-up, when
// nothing is recorded.
func (r *rig) work(w, batch, quota int, clk *clock, tr *tracer) *workerStats {
	ws := &workerStats{}
	if clk != nil {
		ws.service = make([]float64, 0, quota/batch+1)
		ws.serviceWin = make([]int32, 0, quota/batch+1)
		if !r.synthetic {
			ws.kernelMS = make([]float64, 0, quota)
		}
	}
	c, measure, orc := r.clients[w], r.measure[w], r.oracles[w]
	results := make([]core.TrialResult, 0, batch)
	kernels := make([]int64, 0, batch)
	for done := 0; done < quota; {
		t0 := time.Now()
		lb, err := c.LeaseN(min(batch, quota-done))
		t1 := time.Now()
		ws.calls++
		if err != nil {
			ws.fail++
			ws.err = fmt.Errorf("lease: %w", err)
			break
		}
		if len(lb.Trials) == 0 {
			// A busy answer: the caps here leave room for every worker's
			// batch, so this only happens if the server is overloaded.
			time.Sleep(max(lb.Retry, time.Millisecond))
			continue
		}
		results, kernels = results[:0], kernels[:0]
		for _, trial := range lb.Trials {
			v, kns, err := measure(trial)
			if err != nil {
				ws.err = err
				break
			}
			results = append(results, core.TrialResult{ID: trial.ID, Value: v})
			kernels = append(kernels, kns)
			if clk != nil && done+len(results) > quota/2 {
				ws.tailN++
				ws.tailRegret += v - orc.cost
				ws.tailOracle += orc.cost
				if trial.Algo == orc.arm {
					ws.tailBest++
				}
			}
		}
		if ws.err != nil {
			break
		}
		t2 := time.Now()
		applied, dropped, err := c.CompleteN(lb.Epoch, results)
		t3 := time.Now()
		ws.calls++
		if err != nil {
			ws.fail++
			ws.err = fmt.Errorf("complete: %w", err)
			break
		}
		ws.applied += len(applied)
		ws.dropped += len(dropped)
		done += len(results)
		if clk == nil {
			continue
		}
		win := clk.completed(len(results))
		ws.trials += len(results)
		ws.winTrials[win] += len(results)
		for i, res := range results {
			ws.valueMS[win] += res.Value
			ws.kernelNS[win] += kernels[i]
			if ws.kernelMS != nil {
				ws.kernelMS = append(ws.kernelMS, float64(kernels[i])/1e6)
			}
		}
		ws.service = append(ws.service, float64(t1.Sub(t0)+t3.Sub(t2))/1e3)
		ws.serviceWin = append(ws.serviceWin, int32(win))
		if tr != nil {
			id := lb.Trials[0].ID
			tr.add(spBatch, id, tr.at(t0), tr.at(t3))
			tr.add(spClientLease, id, tr.at(t0), tr.at(t1))
			tr.add(spKernel, id, tr.at(t1), tr.at(t2))
			tr.add(spClientComplete, id, tr.at(t2), tr.at(t3))
		}
	}
	return ws
}

// phase runs every worker to its quota concurrently and waits for all.
func (r *rig) phase(batch int, quotas []int, clk *clock, tr *tracer) []*workerStats {
	out := make([]*workerStats, len(quotas))
	var wg sync.WaitGroup
	for w, q := range quotas {
		wg.Add(1)
		go func(w, q int) {
			defer wg.Done()
			out[w] = r.work(w, batch, q, clk, tr)
		}(w, q)
	}
	wg.Wait()
	return out
}

// measurement is everything one run of a workload measured.
type measurement struct {
	setupS  []float64
	trials  int // timed trials, all workers
	wallNS  int64
	before  procSnapshot
	after   procSnapshot
	marks   [windows + 1]mark
	workers []*workerStats
	calls   int
	failed  int
	// durable and contextual say whether the run reached the durable
	// registry's disk state and a contextual engine.
	durable, contextual bool
	contexts            int
	restartMS           float64
	// diskPerTrial is the bytes under a durable rig's root per trial
	// served.
	diskPerTrial float64
	failures     []string // failed correctness checks
}

// window is one complete window of the timed phase, summed over workers.
type window struct {
	seconds  float64
	trials   int
	cpuNS    int64
	valueMS  float64
	kernelNS int64
	service  []float64
}

// windows returns the timed phase's complete windows in order.
func (m *measurement) windows() []window {
	var all [windows]window
	for _, ws := range m.workers {
		for i, win := range ws.serviceWin {
			all[win].service = append(all[win].service, ws.service[i])
		}
	}
	var out []window
	for k := 1; k <= windows; k++ {
		a, b := m.marks[k-1], m.marks[k]
		if !a.ok || !b.ok {
			continue
		}
		if b.n == a.n {
			continue // a batch that passed several boundaries at once
		}
		w := all[k-1]
		w.seconds, w.cpuNS = b.at.Sub(a.at).Seconds(), b.cpuNS-a.cpuNS
		for _, ws := range m.workers {
			w.trials += ws.winTrials[k-1]
			w.valueMS += ws.valueMS[k-1]
			w.kernelNS += ws.kernelNS[k-1]
		}
		out = append(out, w)
	}
	return out
}

func (m *measurement) kernelMS() []float64 {
	var out []float64
	for _, ws := range m.workers {
		out = append(out, ws.kernelMS...)
	}
	return out
}

func (m *measurement) sum(f func(*workerStats) float64) float64 {
	s := 0.0
	for _, ws := range m.workers {
		s += f(ws)
	}
	return s
}

// warmupShare is the share of a run's trial budget spent before timing
// starts, so caches fill and the tuner leaves its initial sweep.
const warmupShare = 0.05

// runWorkload sets w up setups times, timing each, keeps the last
// set-up, warms it up, then times the rest of the budget. tr, when set,
// traces the timed phase. tmp holds durable state; it must exist.
func runWorkload(w *workload, in *inputs, budget, setups int, tmp string, tr *tracer) (*measurement, error) {
	m := &measurement{}
	var r *rig
	var dir string
	for i := 0; i < setups; i++ {
		if r != nil {
			r.close()
			os.RemoveAll(dir)
		}
		var err error
		dir, err = os.MkdirTemp(tmp, w.name+"-")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		r, err = w.build(in, dir, tr)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		m.setupS = append(m.setupS, time.Since(start).Seconds())
	}
	defer os.RemoveAll(dir)
	defer r.close()

	quotas := func(total int) []int {
		q := make([]int, len(r.clients))
		for i := range q {
			q[i] = total / len(q)
			if r.shares != nil {
				q[i] = int(float64(total) * r.shares[i])
			}
		}
		return q
	}
	warm := int(float64(budget) * warmupShare)
	all := r.phase(w.batch, quotas(warm), nil, nil)

	timed := quotas(budget - warm)
	total := 0
	for _, q := range timed {
		total += q
	}
	m.before = snapshot()
	if tr != nil {
		tr.on.Store(true)
	}
	clk := newClock(total)
	m.workers = r.phase(w.batch, timed, clk, tr)
	m.wallNS = int64(time.Since(clk.marks[0].at))
	if tr != nil {
		tr.on.Store(false)
	}
	m.after = snapshot()
	m.marks = clk.marks
	all = append(all, m.workers...)

	for _, ws := range m.workers {
		m.trials += ws.trials
	}
	for _, ws := range all {
		m.calls += ws.calls
		m.failed += ws.fail
		if ws.err != nil {
			m.failures = append(m.failures, ws.err.Error())
		}
	}
	m.durable, m.contextual = r.restart != nil, r.contexts != nil
	if m.contextual {
		m.contexts = r.contexts()
	}
	m.failures = append(m.failures, r.check(all, m.contexts)...)
	if r.restart != nil && len(m.failures) == 0 {
		r.close() // stop serving before a second registry opens the root
		engs, err := r.engines()
		if err != nil {
			return nil, err
		}
		served := make([]int, len(engs))
		total := 0
		for i, e := range engs {
			served[i] = e.Iterations()
			total += served[i]
		}
		d, size, err := r.restart(served)
		if err != nil {
			m.failures = append(m.failures, err.Error())
		}
		m.restartMS = float64(d) / 1e6
		m.diskPerTrial = float64(size) / float64(total)
	}
	return m, nil
}

// check verifies every engine's books against what the workers saw:
// applied completions equal Iterations, nothing was dropped, the
// selection counts sum to Iterations; the synthetic roster's best value
// is 2; a contextual engine found both input classes.
func (r *rig) check(all []*workerStats, contexts int) []string {
	engs, err := r.engines()
	if err != nil {
		return []string{err.Error()}
	}
	applied := make([]int, len(engs))
	var fails []string
	for i, ws := range all {
		applied[r.engineOf[i%len(r.engineOf)]] += ws.applied
		if ws.dropped > 0 {
			fails = append(fails, fmt.Sprintf("worker %d: %d completions dropped", i%len(r.engineOf), ws.dropped))
		}
	}
	for i, e := range engs {
		iters := e.Iterations()
		if applied[i] != iters {
			fails = append(fails, fmt.Sprintf("engine %d: %d completions applied, Iterations() = %d", i, applied[i], iters))
		}
		sum := 0
		for _, c := range e.Counts() {
			sum += c
		}
		if sum != iters {
			fails = append(fails, fmt.Sprintf("engine %d: Σ Counts() = %d, Iterations() = %d", i, sum, iters))
		}
		if _, _, best := e.Best(); r.synthetic && best != 2 {
			fails = append(fails, fmt.Sprintf("engine %d: best value %v, want 2", i, best))
		}
	}
	if r.contexts != nil && contexts < 2 {
		fails = append(fails, fmt.Sprintf("contextual engine found %d contexts, want ≥ 2", contexts))
	}
	sort.Strings(fails)
	return fails
}
