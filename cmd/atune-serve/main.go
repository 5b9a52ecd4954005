// Command atune-serve runs the distributed tuning service: the
// sequential tuner wrapped in the lease-based trial engine, exposed
// over TCP to remote atune-worker processes. All tuning decisions stay
// here; workers only measure.
//
// Usage:
//
//	atune-serve [-addr host:port] [-workload strmatch|sleep] [-seed S]
//	            [-epsilon PCT] [-target N] [-checkpoint dir] [-every N]
//	            [-lease-timeout D] [-max-inflight N] [-shards N] [-stats D]
//	            [-session-cap N] [-global-cap N] [-drain D] [-chaos spec]
//	            [-drift] [-ref-algo N]
//	            [-contextual] [-buckets N] [-split-min N]
//	            [-tenants spec] [-max-resident N]
//
// The workload flag selects the algorithm roster the service tunes
// over; workers must be started with the same workload so their
// config hash matches the server's (a mismatched worker is rejected at
// the handshake). "strmatch" is the paper's eight parallel string
// matching algorithms; "sleep" is a small synthetic roster for smoke
// tests and benchmarks.
//
// With -checkpoint the session is durable: state is snapshotted every
// -every trials and journaled in between. Restarting atune-serve with
// the same -checkpoint directory resumes the session where it left
// off — workers reconnect on their own and keep going; reports for
// leases issued by the previous incarnation are acknowledged and
// dropped (see DESIGN.md, "distributed tuning").
//
// The server stops leasing once -target trials have been decided
// (0 = run forever). SIGTERM drains gracefully: leasing stops, workers
// get a Draining busy response, in-flight trials are waited out up to
// -drain, and a final checkpoint is written before the listener closes.
// SIGINT closes abruptly (outstanding leases die with the epoch).
// -session-cap and -global-cap bound lease hoarding per worker session
// and server-wide; over-cap requests get an empty busy response whose
// RetryMS hint grows with load. -chaos routes every connection through
// the fault-injection layer (see internal/chaos.ParseSpec) for soak
// testing the service against its own failure semantics.
//
// -drift arms the drift watchdog: per-algorithm change-point detectors
// watch the cost streams and, on a detected input change, soften the
// selector's record and schedule fresh probes so the incumbent is
// re-elected on post-change evidence (see DESIGN.md, "drift"). -ref-algo
// names the roster slot workers measure as their calibration reference
// (workers opt in with -calibrate); reported costs are divided by each
// worker's speed factor relative to the fleet's fastest member.
//
// -contextual serves a contextual engine instead of the flat one:
// leases carrying a feature vector (atune-worker -features) are routed
// to a per-context selector replica, contexts are discovered online by
// hashing quantized features into -buckets and splitting a bucket when
// its cost distribution turns bimodal across a feature threshold after
// -split-min samples (see DESIGN.md, "contextual routing"). Feature-less
// workers — v1 binaries included — keep tuning the global context
// unchanged. Under -checkpoint the partitioner's split journal and every
// context's selector ride along, so a restart rediscovers all contexts.
// -contextual is exclusive with -tenants and -shards > 1.
//
// -tenants switches the process into multi-tenant mode: one server,
// many independent tuning problems, each with its own engine, epoch,
// and (under -checkpoint) its own journal directory. The spec is either
// a comma-separated flag list
//
//	name=workload[/selector[/shards]]
//
// (e.g. -tenants 'teamA=strmatch,teamB=sleep/egreedy:5/4'), or
// @file.json holding a JSON array of tenant specs. Workers pick their
// tenant with atune-worker -tenant; workers that predate tenancy land
// on the "default" tenant, which is always registered from the base
// flags unless the spec names one explicitly. -max-resident bounds how
// many tenant engines stay live at once (requires -checkpoint): the
// least-recently-used idle tenant is checkpointed and released, and
// warm-restarts on its next lease.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/ctxtune"
	"repro/internal/nominal"
	"repro/internal/param"
	"repro/internal/strmatch"
	"repro/internal/tenant"
	"repro/internal/tuned"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("atune-serve: ")
	var (
		addr     = flag.String("addr", "127.0.0.1:7714", "listen address")
		workload = flag.String("workload", "strmatch", "algorithm roster: strmatch or sleep")
		seed     = flag.Int64("seed", 1, "tuner seed")
		epsilon  = flag.Float64("epsilon", 10, "epsilon-greedy exploration rate in percent")
		target   = flag.Int("target", 0, "stop leasing after this many trials (0 = run forever)")
		ckptDir  = flag.String("checkpoint", "", "directory for crash-safe snapshots + journal (empty = off)")
		every    = flag.Int("every", 100, "snapshot interval in trials (with -checkpoint)")
		leaseTTL = flag.Duration("lease-timeout", 30*time.Second, "lease TTL; a worker silent this long forfeits its trials")
		maxInFl  = flag.Int("max-inflight", 64, "maximum concurrently leased trials")
		shards   = flag.Int("shards", 1, "selector shards; each worker session is pinned to one (1 = unsharded)")
		statsIvl = flag.Duration("stats", 5*time.Second, "progress log interval (0 = quiet)")
		sessCap  = flag.Int("session-cap", 0, "max leases one worker session may hold (0 = unbounded)")
		globCap  = flag.Int("global-cap", 0, "max in-flight leases across all sessions (0 = unbounded)")
		drainTO  = flag.Duration("drain", 10*time.Second, "graceful drain deadline on SIGTERM")
		chaosFlg = flag.String("chaos", "", "fault-injection spec, e.g. latency=2ms,reset=0.01,blackhole=10s/1s (empty = off)")
		driftFlg = flag.Bool("drift", false, "arm the drift watchdog (change-point detection + adaptive selector reset)")
		refAlgo  = flag.Int("ref-algo", 0, "roster slot workers measure as their calibration reference")
		tenFlg   = flag.String("tenants", "", "multi-tenant mode: name=workload[/selector[/shards]],... or @specs.json (empty = single-tenant)")
		maxRes   = flag.Int("max-resident", 0, "max live tenant engines, LRU spills the rest to checkpoint (0 = unbounded; needs -checkpoint)")
		ctxFlg   = flag.Bool("contextual", false, "route feature-bearing leases to per-context selector replicas")
		buckets  = flag.Int("buckets", ctxtune.DefaultBuckets, "initial feature-hash buckets (with -contextual)")
		splitMin = flag.Int("split-min", ctxtune.DefaultMinSamples, "samples a context needs before it may split (with -contextual)")
	)
	flag.Parse()

	algos := roster(*workload)
	// Reject malformed flag values up front — a typo like -epsilon 1000
	// or -shards 0 should die at startup, not skew a week-long session.
	if *epsilon <= 0 || *epsilon > 100 {
		log.Fatalf("-epsilon %g out of range (0, 100]", *epsilon)
	}
	if *target < 0 {
		log.Fatalf("-target %d must be >= 0", *target)
	}
	if *every <= 0 {
		log.Fatalf("-every %d must be > 0", *every)
	}
	if *leaseTTL <= 0 {
		log.Fatalf("-lease-timeout %v must be > 0", *leaseTTL)
	}
	if *maxInFl <= 0 {
		log.Fatalf("-max-inflight %d must be > 0", *maxInFl)
	}
	if *shards <= 0 {
		log.Fatalf("-shards %d must be > 0", *shards)
	}
	if *sessCap < 0 || *globCap < 0 {
		log.Fatalf("-session-cap %d and -global-cap %d must be >= 0", *sessCap, *globCap)
	}
	if *drainTO <= 0 {
		log.Fatalf("-drain %v must be > 0", *drainTO)
	}
	if *refAlgo < 0 || *refAlgo >= len(algos) {
		log.Fatalf("-ref-algo %d out of range [0, %d) for workload %s", *refAlgo, len(algos), *workload)
	}
	if *maxRes < 0 {
		log.Fatalf("-max-resident %d must be >= 0", *maxRes)
	}
	if *maxRes > 0 && *tenFlg == "" {
		log.Fatal("-max-resident only applies with -tenants")
	}
	if *maxRes > 0 && *ckptDir == "" {
		log.Fatal("-max-resident needs -checkpoint: spilling a tenant without a checkpoint root would lose its state")
	}
	if *buckets <= 0 {
		log.Fatalf("-buckets %d must be > 0", *buckets)
	}
	if *splitMin <= 0 {
		log.Fatalf("-split-min %d must be > 0", *splitMin)
	}
	if *ctxFlg && *tenFlg != "" {
		log.Fatal("-contextual is exclusive with -tenants: contexts partition one tuning problem, tenants are separate problems")
	}
	if *ctxFlg && *shards > 1 {
		log.Fatalf("-contextual is exclusive with -shards %d: each context already has its own selector replica", *shards)
	}
	if !*ctxFlg && (*buckets != ctxtune.DefaultBuckets || *splitMin != ctxtune.DefaultMinSamples) {
		log.Fatal("-buckets and -split-min only apply with -contextual")
	}

	// The flat engine's recipe, shared by single-engine mode and every
	// tenant built from the base flags.
	base := core.EngineSpec{
		Seed: *seed, Shards: *shards, LeaseTimeoutMS: leaseTTL.Milliseconds(),
		MaxInFlight: *maxInFl, Drift: *driftFlg, SnapshotEvery: *every,
	}
	if *tenFlg != "" {
		runTenants(tenantMode{
			addr: *addr, spec: *tenFlg, workload: *workload, ckptDir: *ckptDir,
			chaosSpec: *chaosFlg, selector: fmt.Sprintf("egreedy:%g", *epsilon),
			engine: base, target: *target, sessCap: *sessCap, globCap: *globCap,
			refAlgo: *refAlgo, maxResident: *maxRes, statsIvl: *statsIvl,
			drainTO: *drainTO,
		})
		return
	}

	var (
		eng  tuned.Engine
		ceng *ctxtune.Engine
	)
	if *ctxFlg {
		copts := []core.Option{
			core.WithLeaseTimeout(*leaseTTL),
			core.WithMaxInFlight(*maxInFl),
		}
		if *driftFlg {
			copts = append(copts, core.WithDriftWatchdog(core.DefaultDriftConfig()))
		}
		var err error
		ceng, err = ctxtune.New(ctxtune.Config{
			Algos: algos,
			// Windowed ε-greedy: a cold context is warm-started from the
			// global fold, and when the context disagrees with it the
			// imported evidence must be able to age out of the window.
			Selector: func() nominal.Selector {
				return &nominal.EpsilonGreedy{Eps: *epsilon / 100, RecencyWindow: 25}
			},
			Seed:        *seed,
			Partitioner: ctxtune.NewTree(*buckets, *splitMin, 0),
			Dir:         *ckptDir,
			Every:       *every,
			Opts:        copts,
		})
		if err != nil {
			log.Fatalf("contextual engine: %v", err)
		}
		defer ceng.Close()
		if n := ceng.ContextCount(); n > 0 {
			log.Printf("resumed %d context(s) from %s at trial %d", n, *ckptDir, ceng.Iterations())
		}
		eng = ceng
	} else {
		// A previous incarnation's session in -checkpoint is resumed by
		// the build. The new process gets a fresh epoch, so stale reports
		// from leases the old process issued are dropped, not misapplied.
		resumed := core.HasCheckpoint(*ckptDir)
		seng, err := base.Build(algos, nominal.NewEpsilonGreedy(*epsilon/100), nil, *ckptDir)
		if err != nil {
			log.Fatalf("engine: %v", err)
		}
		if resumed {
			log.Printf("resumed session from %s at trial %d", *ckptDir, seng.Iterations())
		}
		eng = seng
	}

	srv := tuned.NewServer(eng, tuned.WithTrialTarget(*target),
		tuned.WithSessionCap(*sessCap), tuned.WithGlobalCap(*globCap),
		tuned.WithRefAlgo(*refAlgo))
	log.Printf("workload %s (%d algorithms, hash %08x), listening on %s",
		*workload, len(algos), srv.Hash(), *addr)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		if s == syscall.SIGTERM {
			// Graceful: stop leasing, wait out in-flight trials, write a
			// final checkpoint, then close.
			log.Printf("draining (deadline %v)", *drainTO)
			if err := srv.Drain(*drainTO); err != nil {
				log.Printf("drain: %v", err)
			}
			return
		}
		log.Printf("shutting down")
		srv.Close()
	}()

	if *statsIvl > 0 {
		go func() {
			t := time.NewTicker(*statsIvl)
			defer t.Stop()
			for range t.C {
				eng.ReclaimExpired()
				st := eng.Stats()
				algo, _, val := eng.Best()
				name := "(none)"
				if algo >= 0 {
					name = algos[algo].Name
				}
				log.Printf("trials=%d inflight=%d completed=%d failed=%d expired=%d best=%s (%.4g)",
					eng.Iterations(), st.InFlight, st.Completed, st.Failed, st.Expired, name, val)
				if n := srv.Rebalanced(); n > 0 {
					log.Printf("rebalanced: %d lease grant(s) clamped to fair share", n)
				}
				if ceng != nil {
					log.Printf("contexts: %d live replica(s)", ceng.ContextCount())
				}
				if ds := eng.DriftStats(); ds.Events > 0 || ds.PendingProbes > 0 {
					log.Printf("drift: events=%d decays=%d reforks=%d probes=%d pending=%d stale=%d outliers=%d",
						ds.Events, ds.Decays, ds.Reforks, ds.ProbesScheduled, ds.PendingProbes,
						ds.StaleDropped, ds.Outliers)
				}
			}
		}()
	}

	if err := srv.Serve(listen(*addr, *chaosFlg)); err != nil {
		log.Fatalf("serve: %v", err)
	}

	// Closed (signal or caller): report the session's verdict.
	if ds := eng.DriftStats(); *driftFlg || ds.Events > 0 {
		log.Printf("drift summary: events=%d decays=%d reforks=%d probes=%d stale=%d outliers=%d reprobes=%d",
			ds.Events, ds.Decays, ds.Reforks, ds.ProbesScheduled, ds.StaleDropped,
			ds.Outliers, ds.QuarantineReprobes)
	}
	algo, cfg, val := eng.Best()
	if algo < 0 {
		log.Printf("no trials completed")
		return
	}
	counts := eng.Counts()
	type pick struct {
		name string
		n    int
	}
	picks := make([]pick, len(algos))
	for i, a := range algos {
		picks[i] = pick{a.Name, counts[i]}
	}
	sort.Slice(picks, func(i, j int) bool { return picks[i].n > picks[j].n })
	log.Printf("best after %d trials: %s cfg=%v value=%.4g", eng.Iterations(), algos[algo].Name, cfg, val)
	for _, p := range picks {
		log.Printf("  %-20s %6d trials", p.name, p.n)
	}
}

// listen opens the service listener, optionally behind the chaos
// fault-injection layer.
func listen(addr, chaosSpec string) net.Listener {
	if chaosSpec != "" {
		ccfg, err := chaos.ParseSpec(chaosSpec)
		if err != nil {
			log.Fatalf("chaos: %v", err)
		}
		ln, _, err := chaos.Listen("tcp", addr, ccfg)
		if err != nil {
			log.Fatalf("listen %s: %v", addr, err)
		}
		log.Printf("fault injection active: %s", chaosSpec)
		return ln
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("listen %s: %v", addr, err)
	}
	return ln
}

// tenantMode carries the resolved flag values into multi-tenant serving.
type tenantMode struct {
	addr, spec, workload, ckptDir, chaosSpec, selector string

	engine                                         core.EngineSpec
	target, sessCap, globCap, refAlgo, maxResident int
	statsIvl, drainTO                              time.Duration
}

// runTenants is the -tenants serving path: a tenant registry instead of
// one engine, every tenant persisted under its own subdirectory of
// -checkpoint, and per-tenant lines in the stats log and the shutdown
// summary.
func runTenants(cfg tenantMode) {
	specs := parseTenantSpecs(cfg.spec, cfg.selector, cfg.engine)
	hasDefault := false
	for _, s := range specs {
		if s.Name == tenant.DefaultName {
			hasDefault = true
		}
	}
	if !hasDefault {
		// Workers that predate tenancy send no tenant name; they must
		// always find a "default" tenant, built from the base flags.
		specs = append(specs, tenant.Spec{
			Name: tenant.DefaultName, Workload: cfg.workload, Selector: cfg.selector, Engine: cfg.engine,
		})
	}

	reg, err := tenant.NewRegistry(tenant.Config{
		Root: cfg.ckptDir, MaxResident: cfg.maxResident, Roster: tenant.BuiltinRoster,
	})
	if err != nil {
		log.Fatalf("registry: %v", err)
	}
	if resumed := reg.Names(); len(resumed) > 0 {
		log.Printf("rediscovered %d tenant(s) from %s: %v", len(resumed), cfg.ckptDir, resumed)
	}
	for _, s := range specs {
		// Re-registering a rediscovered tenant with an identical spec is
		// a no-op; a changed spec is a configuration error and dies here.
		if err := reg.Register(s); err != nil {
			log.Fatalf("tenant %s: %v", s.Name, err)
		}
	}

	srv := tuned.NewTenantServer(reg, tuned.WithTrialTarget(cfg.target),
		tuned.WithSessionCap(cfg.sessCap), tuned.WithGlobalCap(cfg.globCap),
		tuned.WithRefAlgo(cfg.refAlgo))
	log.Printf("%d tenants %v, listening on %s", len(reg.Names()), reg.Names(), cfg.addr)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		if s == syscall.SIGTERM {
			log.Printf("draining (deadline %v)", cfg.drainTO)
			if err := srv.Drain(cfg.drainTO); err != nil {
				log.Printf("drain: %v", err)
			}
			return
		}
		log.Printf("shutting down")
		srv.Close()
	}()

	if cfg.statsIvl > 0 {
		go func() {
			t := time.NewTicker(cfg.statsIvl)
			defer t.Stop()
			for range t.C {
				reg.ReclaimExpired()
				logTenantRows(reg)
			}
		}()
	}

	if err := srv.Serve(listen(cfg.addr, cfg.chaosSpec)); err != nil {
		log.Fatalf("serve: %v", err)
	}

	// Closed (signal or caller): the per-tenant verdicts.
	log.Printf("final state:")
	logTenantRows(reg)
}

// logTenantRows prints one line per tenant plus an aggregate line, the
// multi-tenant analogue of the single-engine stats log.
func logTenantRows(reg *tenant.Registry) {
	var sumIter, sumInFl, resident int
	for _, in := range reg.Snapshot() {
		state := "spilled"
		if in.Resident {
			state = "resident"
			resident++
		}
		best := "(none)"
		if in.BestAlgo >= 0 {
			best = fmt.Sprintf("%s (%.4g)", in.BestName, in.BestValue)
		}
		log.Printf("tenant %-16s %s trials=%d inflight=%d best=%s spills=%d restarts=%d",
			in.Name, state, in.Iterations, in.InFlight, best, in.Spills, in.Restarts)
		sumIter += in.Iterations
		sumInFl += in.InFlight
	}
	log.Printf("aggregate: tenants=%d resident=%d trials=%d inflight=%d",
		len(reg.Names()), resident, sumIter, sumInFl)
}

// parseTenantSpecs parses the -tenants value: @file.json holding a JSON
// array of tenant specs (authoritative as written), or a comma-separated
// name=workload[/selector[/shards]] list whose entries inherit the base
// flags for everything they do not override.
func parseTenantSpecs(arg, defaultSelector string, base core.EngineSpec) []tenant.Spec {
	if strings.HasPrefix(arg, "@") {
		buf, err := os.ReadFile(strings.TrimPrefix(arg, "@"))
		if err != nil {
			log.Fatalf("-tenants: %v", err)
		}
		var specs []tenant.Spec
		if err := json.Unmarshal(buf, &specs); err != nil {
			log.Fatalf("-tenants %s: %v", arg, err)
		}
		if len(specs) == 0 {
			log.Fatalf("-tenants %s: empty spec list", arg)
		}
		return specs
	}
	var specs []tenant.Spec
	seen := map[string]bool{}
	for _, entry := range strings.Split(arg, ",") {
		name, rest, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok || name == "" || rest == "" {
			log.Fatalf("-tenants entry %q: want name=workload[/selector[/shards]]", entry)
		}
		if seen[name] {
			log.Fatalf("-tenants names %q twice", name)
		}
		seen[name] = true
		s := tenant.Spec{Name: name, Selector: defaultSelector, Engine: base}
		parts := strings.Split(rest, "/")
		if len(parts) > 3 {
			log.Fatalf("-tenants entry %q: want name=workload[/selector[/shards]]", entry)
		}
		s.Workload = parts[0]
		if len(parts) > 1 && parts[1] != "" {
			s.Selector = parts[1]
		}
		if len(parts) > 2 {
			n, err := strconv.Atoi(parts[2])
			if err != nil || n <= 0 {
				log.Fatalf("-tenants entry %q: bad shard count %q", entry, parts[2])
			}
			s.Engine.Shards = n
		}
		specs = append(specs, s)
	}
	return specs
}

// roster builds the algorithm set for a named workload. atune-worker
// builds its measurement table from the same names, delivered in the
// handshake, so the two sides only have to agree on this flag.
func roster(workload string) []core.Algorithm {
	switch workload {
	case "strmatch":
		names := strmatch.Names()
		algos := make([]core.Algorithm, len(names))
		for i, n := range names {
			algos[i] = core.Algorithm{Name: n}
		}
		return algos
	case "sleep":
		return []core.Algorithm{
			{Name: "sleep-steady"},
			{Name: "sleep-tuned", Space: param.NewSpace(param.NewRatio("alpha", 1, 10))},
			{Name: "sleep-laggard"},
		}
	default:
		log.Fatalf("unknown workload %q (want strmatch or sleep)", workload)
		return nil
	}
}
