// Command atune-serve runs the distributed tuning service: the
// two-phase tuner's lease-based trial engine (core.Tuner), exposed
// over TCP to remote atune-worker processes. All tuning decisions stay
// here; workers only measure.
//
// Usage:
//
//	atune-serve [-addr host:port] [-workload strmatch|sleep] [-seed S]
//	            [-epsilon PCT] [-target N] [-checkpoint dir] [-every N]
//	            [-lease-timeout D] [-max-inflight N] [-stats D]
//	            [-session-cap N] [-global-cap N] [-drain D] [-chaos spec]
//	            [-drift] [-ref-algo N]
//	            [-contextual] [-buckets N] [-split-min N]
//	            [-tenants spec] [-max-resident N]
//
// The server always serves a tenant registry. Without -tenants it holds
// one engine built from the flags below, as the "default" tenant that
// every worker lands on; -tenants registers several. Either way one
// serving path follows: the same signal handling, stats log and shutdown
// summary. The startup line names the address actually bound, so
// -addr 127.0.0.1:0 picks a free port.
//
// The workload flag selects the algorithm roster the service tunes
// over; workers must be started with the same workload so their
// config hash matches the server's (a mismatched worker is rejected at
// the handshake). "strmatch" is the paper's eight parallel string
// matching algorithms; "sleep" is a small synthetic roster for smoke
// tests and benchmarks.
//
// With -checkpoint the session is durable: state is snapshotted every
// -every trials and journaled in between, directly in the -checkpoint
// directory. Restarting atune-serve with the same -checkpoint directory
// resumes the session where it left off — workers reconnect on their
// own and keep going; reports for leases issued by the previous
// incarnation are acknowledged and dropped (see DESIGN.md, "distributed
// tuning").
//
// The server stops leasing once -target trials have been decided
// (0 = run forever). SIGTERM drains gracefully: leasing stops, workers
// get a Draining busy response, in-flight trials are waited out up to
// -drain, and a final checkpoint is written before the listener closes.
// SIGINT closes abruptly (outstanding leases die with the epoch). Both
// end with each resident tenant's verdict: a "drift summary:" line
// (with -drift), then "best after N trials:" and the trials per
// algorithm.
// -session-cap and -global-cap bound lease hoarding per worker session
// and per engine; over-cap requests get an empty busy response whose
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
// -contextual makes the engines the flags describe contextual: leases
// carrying a feature vector (atune-worker -features) are routed to a
// per-context selector replica, contexts are discovered online by
// hashing quantized features into -buckets and splitting a bucket when
// its cost distribution turns bimodal across a feature threshold after
// -split-min samples (see DESIGN.md, "contextual routing"). Feature-less
// workers keep tuning the global context unchanged. Under -checkpoint
// every context's trials, its birth and every split are records of the
// engine's one journal, and its snapshots carry the partitioner and
// every context's state, so a restart rediscovers all contexts with
// what each had learned.
// With -tenants it applies to every tenant of the flag list and to the
// implicit "default"; it is the spec's "contexts" block, which a
// @file.json spec sets or leaves out per tenant.
//
// -tenants registers many independent tuning problems behind the one
// port, each with its own engine, epoch, and (under -checkpoint) its own
// journal directory, -checkpoint/<name>/ckpt. The spec is either a
// comma-separated flag list
//
//	name=workload[/selector]
//
// (e.g. -tenants 'teamA=strmatch,teamB=sleep/egreedy:5'), or
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
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/ctxtune"
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
		statsIvl = flag.Duration("stats", 5*time.Second, "progress log interval (0 = quiet)")
		sessCap  = flag.Int("session-cap", 0, "max leases one worker session may hold (0 = unbounded)")
		globCap  = flag.Int("global-cap", 0, "max in-flight leases across all sessions (0 = unbounded)")
		drainTO  = flag.Duration("drain", 10*time.Second, "graceful drain deadline on SIGTERM")
		chaosFlg = flag.String("chaos", "", "fault-injection spec, e.g. latency=2ms,reset=0.01,blackhole=10s/1s (empty = off)")
		driftFlg = flag.Bool("drift", false, "arm the drift watchdog (change-point detection + adaptive selector reset)")
		refAlgo  = flag.Int("ref-algo", 0, "roster slot workers measure as their calibration reference")
		tenFlg   = flag.String("tenants", "", "multi-tenant mode: name=workload[/selector],... or @specs.json (empty = single-tenant)")
		maxRes   = flag.Int("max-resident", 0, "max live tenant engines, LRU spills the rest to checkpoint (0 = unbounded; needs -checkpoint)")
		ctxFlg   = flag.Bool("contextual", false, "route feature-bearing leases to per-context selector replicas")
		buckets  = flag.Int("buckets", ctxtune.DefaultBuckets, "initial feature-hash buckets (with -contextual)")
		splitMin = flag.Int("split-min", ctxtune.DefaultMinSamples, "samples a context needs before it may split (with -contextual)")
	)
	flag.Parse()

	// atune-worker builds its measurement table from the roster names,
	// delivered in the handshake, so the two sides only have to agree on
	// the workload.
	algos, err := tenant.BuiltinRoster(*workload)
	if err != nil {
		log.Fatal(err)
	}
	// Reject malformed flag values up front — a typo like -epsilon 1000
	// or -every 0 should die at startup, not skew a week-long session.
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
	if !*ctxFlg && (*buckets != ctxtune.DefaultBuckets || *splitMin != ctxtune.DefaultMinSamples) {
		log.Fatal("-buckets and -split-min only apply with -contextual")
	}

	// The base spec: the one engine served without -tenants, and every
	// tenant the flags name, the implicit "default" included.
	base := tenant.Spec{
		Name: tenant.DefaultName, Workload: *workload, Selector: fmt.Sprintf("egreedy:%g", *epsilon),
		Engine: core.EngineSpec{
			Seed: *seed, LeaseTimeoutMS: leaseTTL.Milliseconds(),
			MaxInFlight: *maxInFl, Drift: *driftFlg, SnapshotEvery: *every,
		},
	}
	if *ctxFlg {
		base.Contexts = &tenant.Contexts{Buckets: *buckets, SplitMin: *splitMin}
	}
	var reg *tenant.Registry
	if *tenFlg != "" {
		reg = tenantRegistry(*tenFlg, *ckptDir, base, *maxRes)
	} else {
		// The one engine keeps its checkpoint directly in -checkpoint,
		// where the build resumes a previous incarnation's session. The
		// new process gets a fresh epoch, so stale reports from leases
		// the old process issued are dropped, not misapplied. The
		// registry wrapping it has no root and writes nothing.
		eng, resumed, err := base.Build(algos, nil, *ckptDir)
		if err != nil {
			log.Fatalf("engine: %v", err)
		}
		if resumed {
			log.Printf("resumed session from %s at trial %d", *ckptDir, eng.Iterations())
		}
		reg = tenant.NewSingle(eng)
	}

	srv := tuned.NewTenantServer(reg, tuned.WithTrialTarget(*target),
		tuned.WithSessionCap(*sessCap), tuned.WithGlobalCap(*globCap),
		tuned.WithRefAlgo(*refAlgo))
	ln := listen(*addr, *chaosFlg)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		if s == syscall.SIGTERM {
			// Graceful: stop leasing, wait out in-flight trials, write a
			// final checkpoint for every resident tenant, then close.
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
				reg.ReclaimExpired()
				logProgress(reg)
				if n := srv.Rebalanced(); n > 0 {
					log.Printf("rebalanced: %d lease grant(s) clamped to fair share", n)
				}
			}
		}()
	}

	// Logged once signals are handled, so a supervisor that waits for
	// this line may signal at once.
	log.Printf("workload %s (%d algorithms, hash %08x), tenants %v, listening on %s",
		*workload, len(algos), srv.Hash(), reg.Names(), ln.Addr())
	if err := srv.Serve(ln); err != nil {
		log.Fatalf("serve: %v", err)
	}

	// Closed (signal or caller): report each resident tenant's verdict.
	log.Printf("final state:")
	logProgress(reg)
	reg.EachResident(func(name string, eng tenant.Engine) {
		logVerdict(name, eng, *driftFlg)
	})
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

// tenantRegistry builds the -tenants registry: every tenant persisted
// under its own subdirectory of ckptDir, tenants a previous run left
// there rediscovered, and the base spec as the "default" tenant unless
// the -tenants value names one.
func tenantRegistry(arg, ckptDir string, base tenant.Spec, maxResident int) *tenant.Registry {
	specs := parseTenantSpecs(arg, base)
	if !slices.ContainsFunc(specs, func(s tenant.Spec) bool { return s.Name == tenant.DefaultName }) {
		// Workers that predate tenancy send no tenant name; they must
		// always find a "default" tenant, built from the base flags.
		specs = append(specs, base)
	}

	reg, err := tenant.NewRegistry(tenant.Config{Root: ckptDir, MaxResident: maxResident})
	if err != nil {
		log.Fatalf("registry: %v", err)
	}
	if resumed := reg.Names(); len(resumed) > 0 {
		log.Printf("rediscovered %d tenant(s) from %s: %v", len(resumed), ckptDir, resumed)
	}
	for _, s := range specs {
		// Re-registering a rediscovered tenant with an identical spec is
		// a no-op; a changed spec is a configuration error and dies here.
		if err := reg.Register(s); err != nil {
			log.Fatal(err)
		}
	}
	return reg
}

// logProgress prints one line per tenant, resident or spilled, and an
// aggregate line, then each resident engine's failure, drift and context
// counters where they have anything to say.
func logProgress(reg *tenant.Registry) {
	var sumIter, sumInFl, resident int
	infos := reg.Snapshot()
	for _, in := range infos {
		state := "spilled"
		if in.Resident {
			state = "resident"
			resident++
		}
		best := "(none)"
		if in.BestAlgo >= 0 {
			best = fmt.Sprintf("%s (%.4g)", in.BestName, in.BestValue)
		}
		log.Printf("tenant %-16s %s trials=%d inflight=%d completed=%d best=%s spills=%d restarts=%d",
			in.Name, state, in.Iterations, in.InFlight, in.Completed, best, in.Spills, in.Restarts)
		sumIter += in.Iterations
		sumInFl += in.InFlight
	}
	log.Printf("aggregate: tenants=%d resident=%d trials=%d inflight=%d",
		len(infos), resident, sumIter, sumInFl)
	reg.EachResident(func(name string, eng tenant.Engine) {
		if st := eng.Stats(); st.Failed > 0 || st.Expired > 0 {
			log.Printf("tenant %s: failed=%d expired=%d", name, st.Failed, st.Expired)
		}
		if ce, ok := eng.(interface{ ContextCount() int }); ok {
			log.Printf("tenant %s: contexts: %d live replica(s)", name, ce.ContextCount())
		}
		if ds := eng.DriftStats(); ds.Events > 0 || ds.PendingProbes > 0 {
			log.Printf("tenant %s: drift: events=%d decays=%d reforks=%d probes=%d pending=%d stale=%d outliers=%d",
				name, ds.Events, ds.Decays, ds.Reforks, ds.ProbesScheduled, ds.PendingProbes,
				ds.StaleDropped, ds.Outliers)
		}
	})
}

// logVerdict prints a resident tenant's final verdict: its drift summary
// (with -drift, or after any drift event), its best algorithm and how
// many trials each algorithm got.
func logVerdict(name string, eng tenant.Engine, drift bool) {
	log.Printf("tenant %s:", name)
	if ds := eng.DriftStats(); drift || ds.Events > 0 {
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
	order := make([]int, len(counts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return counts[order[i]] > counts[order[j]] })
	log.Printf("best after %d trials: %s cfg=%v value=%.4g", eng.Iterations(), eng.AlgorithmName(algo), cfg, val)
	for _, i := range order {
		log.Printf("  %-20s %6d trials", eng.AlgorithmName(i), counts[i])
	}
}

// parseTenantSpecs parses the -tenants value: @file.json holding a JSON
// array of tenant specs (authoritative as written), or a comma-separated
// name=workload[/selector] list whose entries inherit the base spec,
// -contextual included, for everything they do not override.
func parseTenantSpecs(arg string, base tenant.Spec) []tenant.Spec {
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
			log.Fatalf("-tenants entry %q: want name=workload[/selector]", entry)
		}
		if seen[name] {
			log.Fatalf("-tenants names %q twice", name)
		}
		seen[name] = true
		s := base
		s.Name = name
		parts := strings.Split(rest, "/")
		if len(parts) > 2 {
			log.Fatalf("-tenants entry %q: want name=workload[/selector]", entry)
		}
		s.Workload = parts[0]
		if len(parts) > 1 && parts[1] != "" {
			s.Selector = parts[1]
		}
		specs = append(specs, s)
	}
	return specs
}
