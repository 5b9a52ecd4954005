// Command atune-worker is the remote measurement half of the
// distributed tuning service: it connects to an atune-serve process,
// leases trial batches, measures them locally, and reports the
// results. Run as many as the machine park allows — the server's
// lease engine keeps them consistent, and a worker that dies simply
// forfeits its outstanding leases.
//
// Usage:
//
//	atune-worker [-addr host:port] [-workload strmatch|sleep]
//	             [-batch N] [-heartbeat D] [-max-trials N]
//	             [-corpus BYTES] [-pattern STR] [-threads N]
//	             [-sleep D] [-seed S] [-fallback] [-probe D]
//	             [-idle-retry D] [-chaos spec] [-calibrate N]
//	             [-features F1,F2,...]
//
// The workload must match the server's: the handshake carries a hash
// of the algorithm roster and a mismatch is rejected before any trial
// is leased. The roster names themselves also arrive in the
// handshake, so the worker builds its measurement table from what the
// server actually runs — ordering disagreements are impossible.
//
// -batch > 1 amortizes the network round trip over several trials per
// lease (the repository benchmark in bench/ runs batch 16 in its
// hot_pipelined workload and batch 1 in lockstep_b1); -heartbeat keeps
// long measurements alive past the server's lease TTL.
//
// With -fallback (the default) the worker survives partitions: when the
// client retry budget exhausts it degrades to a local tuner over the
// handshake roster, keeps measuring, probes the server every -probe,
// and on reconnect folds the locally learned selector state back into
// the server before resuming leased operation. -chaos routes the
// connection through the fault-injection layer for soak testing.
//
// -features attaches a feature vector describing this worker's workload
// to every lease and report — e.g. the corpus alphabet size, 27 for
// English text and 4 for DNA. On a contextual tenant (atune-serve
// -contextual, which applies to the -tenants flag list too, or a tenant
// spec with a "contexts" block) the vector routes this worker's trials
// to the selector replica of its workload class; flat tenants ignore
// it. Empty (the default) tunes the global context.
//
// -calibrate N makes the worker measure the server's reference
// algorithm before its first lease and again every N reported trials,
// so the server can normalize this machine's costs by its speed factor
// relative to the fleet's fastest member (see atune-serve -ref-algo).
// Periodic re-calibration tracks thermal and load changes.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/nominal"
	"repro/internal/param"
	"repro/internal/strmatch"
	"repro/internal/tuned"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("atune-worker: ")
	var (
		addr      = flag.String("addr", "127.0.0.1:7714", "tuning server address")
		workload  = flag.String("workload", "strmatch", "measurement workload: strmatch or sleep")
		batch     = flag.Int("batch", 8, "trials leased and reported per round trip")
		heartbeat = flag.Duration("heartbeat", 5*time.Second, "lease-extension interval while measuring (0 = off)")
		maxTrials = flag.Int("max-trials", 0, "stop after this many trials (0 = until the server is done)")
		corpusSz  = flag.Int("corpus", 1<<20, "strmatch corpus size in bytes")
		pattern   = flag.String("pattern", "the spirit to a great and high mountain", "strmatch search pattern")
		threads   = flag.Int("threads", 2, "strmatch search goroutines")
		sleepFor  = flag.Duration("sleep", time.Millisecond, "sleep workload: simulated measurement time")
		seed      = flag.Int64("seed", 1, "corpus generation seed")
		fallback  = flag.Bool("fallback", true, "degrade to local tuning when the server is unreachable; merge back on reconnect")
		probe     = flag.Duration("probe", 250*time.Millisecond, "server probe interval while degraded")
		idleRetry = flag.Duration("idle-retry", 2*time.Millisecond, "wait ceiling when an empty lease response carries no retry hint")
		chaosFlg  = flag.String("chaos", "", "fault-injection spec for this worker's connections (empty = off)")
		calEvery  = flag.Int("calibrate", 0, "re-run the reference probe every N reported trials (0 = no calibration)")
		tenantFlg = flag.String("tenant", "", "tenant to tune for on a multi-tenant server (empty = the default tenant)")
		featFlg   = flag.String("features", "", "comma-separated feature vector attached to every lease, e.g. 4 for a DNA corpus (empty = global context)")
		pipeFlg   = flag.Bool("pipeline", false, "pipeline the connection and overlap wire round trips with measurement")
	)
	flag.Parse()

	// Fail malformed flag values at startup rather than measuring with them.
	if *batch < 1 {
		log.Fatalf("-batch %d must be >= 1", *batch)
	}
	if *maxTrials < 0 {
		log.Fatalf("-max-trials %d must be >= 0", *maxTrials)
	}
	if *corpusSz <= 0 {
		log.Fatalf("-corpus %d must be > 0", *corpusSz)
	}
	if *threads < 1 {
		log.Fatalf("-threads %d must be >= 1", *threads)
	}
	if *heartbeat < 0 || *sleepFor < 0 || *idleRetry < 0 {
		log.Fatalf("-heartbeat, -sleep and -idle-retry must be >= 0")
	}
	if *probe <= 0 {
		log.Fatalf("-probe %v must be > 0", *probe)
	}
	if *calEvery < 0 {
		log.Fatalf("-calibrate %d must be >= 0", *calEvery)
	}
	feats, err := parseFeatures(*featFlg)
	if err != nil {
		log.Fatalf("-features %q: %v", *featFlg, err)
	}

	copts := []tuned.ClientOption{tuned.WithClientName(hostname())}
	if *pipeFlg {
		copts = append(copts, tuned.WithPipeline(0))
	}
	if len(feats) > 0 {
		copts = append(copts, tuned.WithFeatures(feats))
		log.Printf("feature vector %v attached to every lease", feats)
	}
	if *tenantFlg != "" {
		copts = append(copts, tuned.WithTenant(*tenantFlg))
	}
	if *chaosFlg != "" {
		ccfg, err := chaos.ParseSpec(*chaosFlg)
		if err != nil {
			log.Fatalf("chaos: %v", err)
		}
		copts = append(copts, tuned.WithDialer(chaos.New(ccfg).DialTimeout))
		log.Printf("fault injection active: %s", *chaosFlg)
	}
	c, err := tuned.Dial(*addr, copts...)
	if err != nil {
		log.Fatalf("dial %s: %v", *addr, err)
	}
	defer c.Close()
	names := c.Algos()
	if *tenantFlg != "" {
		log.Printf("connected to %s tenant %s: %d algorithms, lease TTL %v", *addr, *tenantFlg, len(names), c.LeaseTTL())
	} else {
		log.Printf("connected to %s: %d algorithms, lease TTL %v", *addr, len(names), c.LeaseTTL())
	}

	measure, err := buildMeasure(*workload, names, measureConfig{
		corpusSize: *corpusSz,
		pattern:    []byte(*pattern),
		threads:    *threads,
		sleep:      *sleepFor,
		seed:       *seed,
	})
	if err != nil {
		log.Fatalf("workload: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		// Abrupt by design: outstanding leases are abandoned and expire
		// on the server — the same path a crashed worker takes.
		cancel()
	}()

	w := &tuned.Worker{
		Client:         c,
		Measure:        measure,
		Batch:          *batch,
		MaxTrials:      *maxTrials,
		HeartbeatEvery: *heartbeat,
		IdleRetry:      *idleRetry,
		CalibrateEvery: *calEvery,
		Pipeline:       *pipeFlg,
	}
	if *fallback {
		w.Fallback = &tuned.Fallback{
			Selector:   func() nominal.Selector { return nominal.NewEpsilonGreedy(0.10) },
			Seed:       *seed,
			ProbeEvery: *probe,
		}
	}
	start := time.Now()
	n, err := w.Run(ctx)
	if err != nil && ctx.Err() == nil {
		log.Fatalf("after %d trials: %v", n, err)
	}
	st := w.Stats()
	if st.Calibrations > 0 {
		log.Printf("calibrated %d times, speed factor %.2f", st.Calibrations, st.Factor)
	}
	if st.Partitions > 0 {
		log.Printf("degraded mode: %d partitions, %d local trials, %d observations merged back, %d dropped",
			st.Partitions, st.DegradedTrials, st.Absorbed, st.DroppedObs)
	}
	log.Printf("done: %d trials in %v", n, time.Since(start).Round(time.Millisecond))
}

type measureConfig struct {
	corpusSize int
	pattern    []byte
	threads    int
	sleep      time.Duration
	seed       int64
}

// buildMeasure maps the server's roster (by name, as delivered in the
// handshake) to a local measurement function.
func buildMeasure(workload string, names []string, mc measureConfig) (core.Measure, error) {
	switch workload {
	case "strmatch":
		// One matcher instance per roster slot; Precompute is re-run
		// inside the measured operation, as in the paper ("any
		// precomputation is part of the algorithm's runtime").
		matchers := make([]strmatch.Matcher, len(names))
		for i, n := range names {
			m, err := strmatch.New(n)
			if err != nil {
				return nil, err
			}
			matchers[i] = m
		}
		text := corpus.Bible(mc.corpusSize, mc.seed)
		return func(algo int, _ param.Config) float64 {
			start := time.Now()
			strmatch.Run(matchers[algo], mc.pattern, text, mc.threads)
			return float64(time.Since(start)) / float64(time.Millisecond)
		}, nil
	case "sleep":
		// Synthetic roster for smoke tests and the wire benchmark: the
		// value is a deterministic function of the arm (and, for the
		// tunable arm, its config), so every worker agrees on the
		// landscape and the server converges regardless of which worker
		// measures what.
		return func(algo int, cfg param.Config) float64 {
			if mc.sleep > 0 {
				time.Sleep(mc.sleep)
			}
			switch {
			case algo < len(names) && names[algo] == "sleep-tuned":
				alpha := 7.0
				if len(cfg) > 0 {
					alpha = cfg[0]
				}
				return 1 + math.Abs(alpha-7) // best arm, at alpha = 7
			case algo < len(names) && names[algo] == "sleep-laggard":
				return 9
			default:
				return 5
			}
		}, nil
	default:
		return nil, &unknownWorkload{workload}
	}
}

type unknownWorkload struct{ name string }

func (e *unknownWorkload) Error() string {
	return "unknown workload \"" + e.name + "\" (want strmatch or sleep)"
}

// parseFeatures decodes the -features value: a comma-separated list of
// finite floats, empty meaning no vector at all.
func parseFeatures(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, field := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
		if err != nil {
			return nil, fmt.Errorf("bad feature %q", field)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("feature %q must be finite", field)
		}
		out = append(out, v)
	}
	return out, nil
}

func hostname() string {
	h, err := os.Hostname()
	if err != nil {
		return "atune-worker"
	}
	return "atune-worker@" + h
}
