package tuned

import (
	"context"
	"encoding/binary"
	"net"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/ctxtune"
	"repro/internal/nominal"
	"repro/internal/param"
	"repro/internal/tenant"
	"repro/internal/wire"
)

// The fused lease: a completion asks for the next trials in the same
// frame, the client holds them, and the next LeaseN under the same
// feature vector takes them without a round trip.

// measured builds the results of a batch under testMeasure.
func measured(lb LeaseBatch) []core.TrialResult {
	res := make([]core.TrialResult, len(lb.Trials))
	for i, tr := range lb.Trials {
		res[i] = core.TrialResult{ID: tr.ID, Value: testMeasure(tr.Algo, tr.Config)}
	}
	return res
}

func mustDial(t *testing.T, addr string, opts ...ClientOption) *Client {
	t.Helper()
	c, err := Dial(addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// leased returns the engine's issued-lease count.
func leased(eng Engine) uint64 { return eng.Stats().Leased }

// TestFusedCompletion is the table of the fused completion's rules.
func TestFusedCompletion(t *testing.T) {
	t.Run("stale epoch still leases", func(t *testing.T) {
		srv, eng, addr := startServer(t, nil)
		c := mustDial(t, addr)
		lb, err := c.LeaseN(1)
		if err != nil {
			t.Fatal(err)
		}
		applied, dropped, err := c.CompleteN(lb.Epoch+1, measured(lb))
		if err != nil || len(applied) != 0 || len(dropped) != 1 {
			t.Fatalf("stale-epoch CompleteN = (%v, %v, %v), want the report dropped", applied, dropped, err)
		}
		if n := leased(eng); n != 2 {
			t.Fatalf("%d leases issued, want the dropped completion's lease too", n)
		}
		next, err := c.LeaseN(1)
		if err != nil || len(next.Trials) != 1 || leased(eng) != 2 {
			t.Fatalf("LeaseN after the fused lease: %d trials, %d leases issued, %v; want the held trial", len(next.Trials), leased(eng), err)
		}
		if next.Epoch != srv.Epoch() || next.Trials[0].ID == lb.Trials[0].ID {
			t.Fatalf("held trial %d of epoch %d, want a fresh trial of the current epoch %d", next.Trials[0].ID, next.Epoch, srv.Epoch())
		}
		if applied, _, err := c.CompleteN(next.Epoch, measured(next)); err != nil || len(applied) != 1 {
			t.Fatalf("completing the held trial: applied %v, %v", applied, err)
		}
	})

	t.Run("held trials count against the session cap", func(t *testing.T) {
		_, _, addr := startServer(t, nil, WithSessionCap(2))
		c := mustDial(t, addr, WithPipeline(0)) // one connection, one session
		lb, err := c.LeaseN(1)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.CompleteN(lb.Epoch, measured(lb)); err != nil {
			t.Fatal(err)
		}
		// Another vector goes to the server, where the held trial takes
		// one of the session's two slots.
		other := []float64{7}
		got, err := c.LeaseNFor(other, 2)
		if err != nil || len(got.Trials) != 1 {
			t.Fatalf("LeaseNFor(2) beside a held trial under cap 2: %d trials, %v; want 1", len(got.Trials), err)
		}
		busy, err := c.LeaseNFor(other, 1)
		if err != nil || len(busy.Trials) != 0 || busy.Retry <= 0 {
			t.Fatalf("LeaseNFor at the cap = %d trials, retry %v, %v; want a busy answer", len(busy.Trials), busy.Retry, err)
		}
	})

	t.Run("draining returns no trials", func(t *testing.T) {
		srv, eng, addr := startServer(t, nil)
		c := mustDial(t, addr)
		lb, err := c.LeaseN(2)
		if err != nil || len(lb.Trials) != 2 {
			t.Fatalf("LeaseN(2): %d trials, %v", len(lb.Trials), err)
		}
		drained := make(chan error, 1)
		go func() { drained <- srv.Drain(5 * time.Second) }() // waits for the second trial
		for !srv.Draining() {
			time.Sleep(time.Millisecond)
		}
		first := LeaseBatch{Trials: lb.Trials[:1], Epoch: lb.Epoch}
		if applied, _, err := c.CompleteN(lb.Epoch, measured(first)); err != nil || len(applied) != 1 {
			t.Fatalf("CompleteN while draining: applied %v, %v", applied, err)
		}
		next, err := c.LeaseN(1)
		if err != nil || len(next.Trials) != 0 || !next.Draining {
			t.Fatalf("LeaseN after a draining completion = %+v, %v; want the server's draining answer", next, err)
		}
		if n := leased(eng); n != 2 {
			t.Fatalf("%d leases issued while draining, want 2", n)
		}
		second := LeaseBatch{Trials: lb.Trials[1:], Epoch: lb.Epoch}
		if _, _, err := c.CompleteN(lb.Epoch, measured(second)); err != nil {
			t.Fatal(err)
		}
		if err := <-drained; err != nil {
			t.Fatal(err)
		}
	})

	t.Run("done returns no trials", func(t *testing.T) {
		_, eng, addr := startServer(t, nil, WithTrialTarget(1))
		c := mustDial(t, addr)
		lb, err := c.LeaseN(1)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.CompleteN(lb.Epoch, measured(lb)); err != nil {
			t.Fatal(err)
		}
		next, err := c.LeaseN(1)
		if err != nil || len(next.Trials) != 0 || !next.Done {
			t.Fatalf("LeaseN after the target = %+v, %v; want the server's Done", next, err)
		}
		if n := leased(eng); n != 1 {
			t.Fatalf("%d leases issued, want 1", n)
		}
	})

	t.Run("another vector does not take the held batch", func(t *testing.T) {
		_, eng, addr := startServer(t, nil)
		c := mustDial(t, addr)
		lb, err := c.LeaseN(1)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.CompleteN(lb.Epoch, measured(lb)); err != nil {
			t.Fatal(err)
		}
		other, err := c.LeaseNFor([]float64{5}, 1)
		if err != nil || len(other.Trials) != 1 || leased(eng) != 3 {
			t.Fatalf("LeaseNFor another vector: %d trials, %d leases issued, %v; want a fresh lease", len(other.Trials), leased(eng), err)
		}
		held, err := c.LeaseN(1)
		if err != nil || len(held.Trials) != 1 || leased(eng) != 3 {
			t.Fatalf("LeaseN: %d trials, %d leases issued, %v; want the held trial", len(held.Trials), leased(eng), err)
		}
		if held.Trials[0].ID == other.Trials[0].ID {
			t.Fatalf("held trial %d was also handed to another vector", held.Trials[0].ID)
		}
	})

	t.Run("a held batch is handed out in parts", func(t *testing.T) {
		_, eng, addr := startServer(t, nil)
		c := mustDial(t, addr)
		lb, err := c.LeaseN(3)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.CompleteN(lb.Epoch, measured(lb)); err != nil {
			t.Fatal(err)
		}
		seen := map[uint64]bool{}
		for _, n := range []int{2, 2} {
			part, err := c.LeaseN(n)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range part.Trials {
				if seen[tr.ID] {
					t.Fatalf("held trial %d handed out twice", tr.ID)
				}
				seen[tr.ID] = true
			}
		}
		if len(seen) != 3 || leased(eng) != 6 {
			t.Fatalf("%d held trials handed out with %d leases issued, want the 3 held ones and no more", len(seen), leased(eng))
		}
	})

	t.Run("a batch handed out in parts does not shrink the next", func(t *testing.T) {
		_, eng, addr := startServer(t, nil)
		c := mustDial(t, addr)
		step := func(n, want int) {
			t.Helper()
			lb, err := c.LeaseN(n)
			if err != nil || len(lb.Trials) != want {
				t.Fatalf("LeaseN(%d): %d trials, %v; want %d", n, len(lb.Trials), err, want)
			}
			if _, _, err := c.CompleteN(lb.Epoch, measured(lb)); err != nil {
				t.Fatal(err)
			}
		}
		step(4, 4) // leases 4 ahead
		step(1, 1) // a quota's last trial: 3 stay held, nothing leased ahead
		step(4, 3) // the 3 held; the completion leases the caller's 4 ahead
		before := leased(eng)
		step(4, 4)
		if n := leased(eng) - before; n != 4 {
			t.Fatalf("the last round issued %d leases, want only the 4 leased ahead", n)
		}
	})
}

// TestFusedContextualRouting: two sessions of one client, one per input
// class, each hold their own batch on a contextual server that has
// split, and each held trial is routed by its session's features — the
// cheap class learns algorithm 0, the dear one algorithm 1, from trials
// that never took a lease round trip of their own.
func TestFusedContextualRouting(t *testing.T) {
	eng, addr := startContextualServer(t)
	c := mustDial(t, addr, WithPipeline(0))
	classes := []struct {
		s    *Session
		f    []float64
		want int
	}{
		{c.Session(SessionFeatures(wireCheap)), wireCheap, 0},
		{c.Session(SessionFeatures(wireDear)), wireDear, 1},
	}
	run := func(s *Session, f []float64) (algo int, local bool) {
		before := leased(eng)
		lb, err := s.LeaseN(1)
		if err != nil || len(lb.Trials) != 1 {
			t.Fatalf("LeaseN: %d trials, %v", len(lb.Trials), err)
		}
		local = leased(eng) == before
		tr := lb.Trials[0]
		if applied, _, err := s.CompleteN(lb.Epoch, []core.TrialResult{{ID: tr.ID, Value: wireClassCost(f, tr.Algo)}}); err != nil || len(applied) != 1 {
			t.Fatalf("CompleteN: applied %v, %v", applied, err)
		}
		return tr.Algo, local
	}
	for i := 0; i < 300; i++ {
		for _, cl := range classes {
			run(cl.s, cl.f)
		}
	}
	if n := eng.ContextCount(); n < 2 {
		t.Fatalf("%d contexts, want a split into 2", n)
	}
	for _, cl := range classes {
		picks := map[int]int{}
		for i := 0; i < 40; i++ {
			algo, local := run(cl.s, cl.f)
			if !local {
				t.Fatalf("class %v: lease %d took a round trip, want the held trial", cl.f, i)
			}
			picks[algo]++
		}
		if picks[cl.want] <= picks[1-cl.want] {
			t.Errorf("class %v held-trial picks %v, want a majority on %d", cl.f, picks, cl.want)
		}
	}
}

// journalRecords counts the valid record lines of every journal
// segment in dir.
func journalRecords(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	for _, seq := range checkpoint.Segments(dir) {
		info, err := checkpoint.InspectSegment(checkpoint.SegPath(dir, seq))
		if err != nil {
			t.Fatal(err)
		}
		n += info.Records
	}
	return n
}

// releaseEngines builds a journalled flat engine and a journalled
// contextual one, both with a 50ms lease TTL, for the release tests.
func releaseEngines(t *testing.T) []struct {
	name  string
	eng   Engine
	dir   string
	feats []float64
} {
	t.Helper()
	const ttl = 50 * time.Millisecond
	flatDir, ctxDir := t.TempDir(), t.TempDir()
	flat, err := core.NewTuner(testAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 1,
		core.WithCheckpoint(flatDir, 0), core.WithLeaseTimeout(ttl))
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := ctxtune.New(ctxtune.Config{
		Algos:    testAlgos(),
		Selector: func() nominal.Selector { return nominal.NewEpsilonGreedy(0.10) },
		Seed:     1,
		Dir:      ctxDir,
		Opts:     []core.Option{core.WithLeaseTimeout(ttl)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name  string
		eng   Engine
		dir   string
		feats []float64
	}{{"flat", flat, flatDir, nil}, {"contextual", ctx, ctxDir, wireCheap}}
}

// serveEngine serves eng on an ephemeral port until the test ends.
func serveEngine(t *testing.T, eng Engine, sopts ...ServerOption) string {
	t.Helper()
	srv := NewServer(eng, sopts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestCloseReleasesHeld: closing a client that holds trials hands them
// back, and the engine takes them back as if they had never been
// leased — no iteration, selection, failure or journal record — on a
// flat and a contextual engine alike. Past the lease TTL no timeout
// failure appears.
func TestCloseReleasesHeld(t *testing.T) {
	for _, e := range releaseEngines(t) {
		t.Run(e.name, func(t *testing.T) {
			addr := serveEngine(t, e.eng)
			c := mustDial(t, addr, WithFeatures(e.feats))
			for i := 0; i < 5; i++ {
				lb, err := c.LeaseN(2)
				if err != nil || len(lb.Trials) != 2 {
					t.Fatalf("LeaseN: %d trials, %v", len(lb.Trials), err)
				}
				if _, _, err := c.CompleteN(lb.Epoch, measured(lb)); err != nil {
					t.Fatal(err)
				}
			}
			iters, counts, fails, records := e.eng.Iterations(), e.eng.Counts(), e.eng.FailureStats(), journalRecords(t, e.dir)
			if st := e.eng.Stats(); st.InFlight != 2 {
				t.Fatalf("%d trials in flight before Close, want the 2 held", st.InFlight)
			}
			c.Close()
			check := func(when string) {
				t.Helper()
				st := e.eng.Stats()
				if st.InFlight != 0 || st.Released != 2 || st.Failed != 0 || st.Expired != 0 {
					t.Fatalf("%s: stats %+v, want the 2 held trials released and nothing failed", when, st)
				}
				if e.eng.Iterations() != iters || !slices.Equal(e.eng.Counts(), counts) || !reflect.DeepEqual(e.eng.FailureStats(), fails) {
					t.Fatalf("%s: iterations %d counts %v failures %+v, want %d %v %+v", when,
						e.eng.Iterations(), e.eng.Counts(), e.eng.FailureStats(), iters, counts, fails)
				}
				if n := journalRecords(t, e.dir); n != records {
					t.Fatalf("%s: %d journal records, want %d", when, n, records)
				}
			}
			check("after Close")
			time.Sleep(100 * time.Millisecond) // twice the lease TTL
			if n := e.eng.ReclaimExpired(); n != 0 {
				t.Fatalf("%d leases reclaimed as timeouts after the TTL", n)
			}
			check("after the TTL")
		})
	}
}

// TestIdleGapReleasesHeld: a caller that pauses past the lease TTL
// between completing a batch and leasing the next finds the trials
// leased ahead handed back, not expired. The engine takes them back
// unpenalized, and the next LeaseN goes to the server.
func TestIdleGapReleasesHeld(t *testing.T) {
	for _, e := range releaseEngines(t) {
		t.Run(e.name, func(t *testing.T) {
			addr := serveEngine(t, e.eng)
			c := mustDial(t, addr, WithFeatures(e.feats))
			lb, err := c.LeaseN(2)
			if err != nil || len(lb.Trials) != 2 {
				t.Fatalf("LeaseN: %d trials, %v", len(lb.Trials), err)
			}
			if _, _, err := c.CompleteN(lb.Epoch, measured(lb)); err != nil {
				t.Fatal(err)
			}
			fails := e.eng.FailureStats()
			time.Sleep(100 * time.Millisecond) // twice the lease TTL
			before := leased(e.eng)
			next, err := c.LeaseN(2)
			if err != nil || len(next.Trials) != 2 || leased(e.eng) != before+2 {
				t.Fatalf("LeaseN after the gap: %d trials, %d leases issued (%d before), %v; want a fresh lease", len(next.Trials), leased(e.eng), before, err)
			}
			if n := e.eng.ReclaimExpired(); n != 0 {
				t.Fatalf("%d leases reclaimed as timeouts", n)
			}
			st := e.eng.Stats()
			if st.Released != 2 || st.Expired != 0 || st.Failed != 0 || !reflect.DeepEqual(e.eng.FailureStats(), fails) {
				t.Fatalf("after the gap: stats %+v, failures %+v (before %+v); want the 2 held trials released and nothing failed", st, e.eng.FailureStats(), fails)
			}
		})
	}
}

// TestLeaseNForLeasesNothingAhead: a caller that leases with LeaseNFor
// and reports with Client.CompleteN pays two round trips per trial and
// leaves no batch held under the sticky vector to expire.
func TestLeaseNForLeasesNothingAhead(t *testing.T) {
	e := releaseEngines(t)[0]
	addr := serveEngine(t, e.eng)
	c := mustDial(t, addr)
	complete := func(lb LeaseBatch, leases int) {
		t.Helper()
		if _, _, err := c.CompleteN(lb.Epoch, measured(lb)); err != nil {
			t.Fatal(err)
		}
		c.hmu.Lock()
		held := len(c.held)
		c.hmu.Unlock()
		if held != 0 || leased(e.eng) != uint64(leases) {
			t.Fatalf("%d batches held, %d leases issued; want none held and %d issued", held, leased(e.eng), leases)
		}
	}
	first, err := c.LeaseN(1) // a LeaseN under the sticky vector first
	if err != nil || len(first.Trials) != 1 {
		t.Fatalf("LeaseN: %d trials, %v", len(first.Trials), err)
	}
	for i := 0; i < 10; i++ {
		lb, err := c.LeaseNFor([]float64{float64(i % 2)}, 1)
		if err != nil || len(lb.Trials) != 1 {
			t.Fatalf("LeaseNFor: %d trials, %v", len(lb.Trials), err)
		}
		complete(lb, i+2)
	}
	complete(first, 11)
	time.Sleep(100 * time.Millisecond) // twice the lease TTL
	if st := e.eng.Stats(); st.InFlight != 0 || st.Expired != 0 || st.Released != 0 {
		t.Fatalf("stats %+v, want nothing in flight, expired or released", st)
	}
}

// TestPipelinedWorkerHoldsNothing: a pipelined Worker's reports lease
// nothing ahead, since its prefetch already keeps the next batch in
// flight, so it never has more than two batches leased and unreported.
func TestPipelinedWorkerHoldsNothing(t *testing.T) {
	_, _, addr := startServer(t, nil)
	c := mustDial(t, addr, WithPipeline(0))
	var maxHeld int
	measure := func(algo int, cfg param.Config) float64 {
		c.hmu.Lock()
		maxHeld = max(maxHeld, len(c.held))
		c.hmu.Unlock()
		return testMeasure(algo, cfg)
	}
	w := &Worker{Client: c, Measure: measure, Batch: 3, MaxTrials: 60, Pipeline: true}
	if n, err := w.Run(context.Background()); err != nil || n != 60 {
		t.Fatalf("Run = %d, %v; want 60 trials", n, err)
	}
	if maxHeld != 0 {
		t.Fatalf("the pipelined worker's client held %d batches, want none", maxHeld)
	}
}

// TestWorkerStopReleasesHeld: a Worker stopping on MaxTrials, in the
// lockstep and the pipelined loop, on a flat and a contextual engine,
// leaves no lease in flight and no trial to expire.
func TestWorkerStopReleasesHeld(t *testing.T) {
	for _, e := range releaseEngines(t) {
		addr := serveEngine(t, e.eng)
		for _, pipelined := range []bool{false, true} {
			name := e.name + "/lockstep"
			opts := []ClientOption{WithFeatures(e.feats)}
			if pipelined {
				name = e.name + "/pipelined"
				opts = append(opts, WithPipeline(0))
			}
			t.Run(name, func(t *testing.T) {
				before := e.eng.Stats()
				c := mustDial(t, addr, opts...)
				w := &Worker{Client: c, Measure: testMeasure, Batch: 3, MaxTrials: 20, Pipeline: pipelined}
				n, err := w.Run(context.Background())
				if err != nil || n != 20 {
					t.Fatalf("Run = %d, %v; want 20 trials", n, err)
				}
				st := e.eng.Stats()
				if st.InFlight != 0 || st.Expired != before.Expired || st.Failed != before.Failed {
					t.Fatalf("after the worker stopped: %+v (before %+v), want nothing in flight, failed or expired", st, before)
				}
				if st.Completed-before.Completed != 20 {
					t.Fatalf("%d trials completed, want 20", st.Completed-before.Completed)
				}
			})
		}
	}
}

// TestHeldDiscardedAcrossRestart rebuilds atune-serve's engine over its
// checkpoint directory while a client holds trials. The client discards
// them once its handshake sees the new epoch, and no completion of a
// trial leased before the crash reaches the new engine, even where the
// new engine re-issues the trial's ID.
func TestHeldDiscardedAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	spec := tenant.Spec{Name: tenant.DefaultName, Workload: "test", Engine: core.EngineSpec{Seed: 1}}
	build := func() (Engine, *Server) {
		t.Helper()
		eng, _, err := spec.Build(testAlgos(), nil, dir)
		if err != nil {
			t.Fatal(err)
		}
		return eng, NewTenantServer(tenant.NewSingle(eng))
	}
	eng1, srv1 := build()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go srv1.Serve(ln)

	c := mustDial(t, addr, WithRetry(20, 10*time.Millisecond, 100*time.Millisecond))
	var held LeaseBatch
	for i := 0; i < 10; i++ {
		lb, err := c.LeaseN(1)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.CompleteN(lb.Epoch, measured(lb)); err != nil {
			t.Fatal(err)
		}
		held = lb
	}
	if eng1.Stats().InFlight != 1 {
		t.Fatalf("%d trials in flight at the crash, want the one held", eng1.Stats().InFlight)
	}

	// Crash: no drain, no checkpoint; the held lease is still out.
	srv1.Close()
	eng2, srv2 := build()
	iters := eng2.Iterations()
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(ln2)
	t.Cleanup(func() { srv2.Close() })

	if _, err := c.Stats(); err != nil { // redials: the new handshake
		t.Fatal(err)
	}
	if c.Epoch() == held.Epoch {
		t.Fatal("epoch unchanged across the restart")
	}
	fresh, err := c.LeaseN(1)
	if err != nil || len(fresh.Trials) != 1 || fresh.Epoch != c.Epoch() {
		t.Fatalf("LeaseN after the restart = %+v, %v; want a trial of the new epoch", fresh, err)
	}
	if eng2.Stats().Leased != 1 {
		t.Fatalf("new engine issued %d leases, want the LeaseN's one (the held trial discarded)", eng2.Stats().Leased)
	}
	// The trial held at the crash, completed under its own epoch, is
	// dropped, and so is the fresh trial's ID under that epoch. The new
	// engine numbers from the highest journalled ID, so the fresh trial
	// may well carry the held trial's ID.
	stale := held.Trials[0].ID + 1 // the ID the crashed engine leased ahead
	applied, dropped, err := c.CompleteN(held.Epoch, []core.TrialResult{{ID: stale, Value: 1}, {ID: fresh.Trials[0].ID, Value: 1}})
	if err != nil || len(applied) != 0 || len(dropped) != 2 {
		t.Fatalf("pre-crash completion after the restart = (%v, %v, %v), want dropped", applied, dropped, err)
	}
	if eng2.Iterations() != iters || eng2.Stats().Completed != 0 {
		t.Fatalf("pre-crash completion reached the new engine: iterations %d (resumed at %d), %+v", eng2.Iterations(), iters, eng2.Stats())
	}
	if alive := eng2.Alive([]uint64{fresh.Trials[0].ID}); !alive[0] {
		t.Fatalf("fresh trial %d no longer leased after a stale report of its ID", fresh.Trials[0].ID)
	}
}

// frameCounter counts the request frames a server reads, by parsing the
// frame headers out of the byte stream.
type frameCounter struct {
	mu     sync.Mutex
	frames map[wire.Type]int
}

type countedConn struct {
	net.Conn
	fc   *frameCounter
	hdr  []byte // the partial header of the frame being read
	skip int    // payload bytes of the current frame still to come
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	b := p[:n]
	c.fc.mu.Lock()
	defer c.fc.mu.Unlock()
	for len(b) > 0 {
		if c.skip > 0 {
			k := min(c.skip, len(b))
			c.skip, b = c.skip-k, b[k:]
			continue
		}
		k := min(wire.HeaderSize-len(c.hdr), len(b))
		c.hdr, b = append(c.hdr, b[:k]...), b[k:]
		if len(c.hdr) == wire.HeaderSize {
			c.fc.frames[wire.Type(c.hdr[5])]++
			c.skip = int(binary.BigEndian.Uint32(c.hdr[8:12]))
			c.hdr = c.hdr[:0]
		}
	}
	return n, err
}

type countedListener struct {
	net.Listener
	fc *frameCounter
}

func (l *countedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: conn, fc: l.fc}, nil
}

// TestLockstepTrialRequests: N lockstep trials cost the server N+1
// trial requests — the first LeaseN, then one completion per trial that
// carries the next lease — where two round trips per trial cost 2N.
func TestLockstepTrialRequests(t *testing.T) {
	const n = 50
	eng, err := core.NewTuner(testAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	fc := &frameCounter{frames: map[wire.Type]int{}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng)
	go srv.Serve(&countedListener{Listener: ln, fc: fc})
	t.Cleanup(func() { srv.Close() })
	c := mustDial(t, ln.Addr().String())
	for i := 0; i < n; i++ {
		lb, err := c.LeaseN(1)
		if err != nil || len(lb.Trials) != 1 {
			t.Fatalf("LeaseN: %d trials, %v", len(lb.Trials), err)
		}
		if _, _, err := c.CompleteN(lb.Epoch, measured(lb)); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	srv.Close() // the server has read every frame once its handlers exit
	fc.mu.Lock()
	defer fc.mu.Unlock()
	leases, completes, fails := fc.frames[wire.TLeaseP], fc.frames[wire.TCompleteP], fc.frames[wire.TFailP]
	if leases+completes != n+1 || completes != n {
		t.Fatalf("%d trials cost %d lease and %d completion requests, want 1 and %d", n, leases, completes, n)
	}
	if fails != 1 || eng.Stats().Released != 1 || eng.Stats().InFlight != 0 {
		t.Fatalf("Close sent %d FailN requests, engine %+v; want one release of the held trial", fails, eng.Stats())
	}
}

// TestHeldBatchConcurrentUse shares one client among goroutines that
// lease and complete at once, two per feature vector, over the lockstep
// pool and a pipelined connection: every held trial is handed out at
// most once, and after Close the lease ledger balances with nothing in
// flight.
func TestHeldBatchConcurrentUse(t *testing.T) {
	for _, opts := range [][]ClientOption{nil, {WithPipeline(0)}} {
		_, eng, addr := startServer(t, []core.Option{core.WithMaxInFlight(256)})
		c := mustDial(t, addr, opts...)
		var (
			wg   sync.WaitGroup
			mu   sync.Mutex
			seen = map[uint64]bool{}
			done int
		)
		for g := 0; g < 4; g++ {
			s := c.Session(SessionFeatures([]float64{float64(g % 2)}))
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					lb, err := s.LeaseN(1 + g)
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					for _, tr := range lb.Trials {
						if seen[tr.ID] {
							t.Errorf("trial %d handed out twice", tr.ID)
						}
						seen[tr.ID] = true
					}
					mu.Unlock()
					applied, _, err := s.CompleteN(lb.Epoch, measured(lb))
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					done += len(applied)
					mu.Unlock()
				}
			}(g)
		}
		wg.Wait()
		c.Close()
		st := eng.Stats()
		if st.InFlight != 0 || int(st.Completed) != done || st.Leased != st.Completed+st.Released || st.Failed+st.Expired != 0 {
			t.Fatalf("after Close: %+v with %d completions applied, want a balanced ledger and nothing in flight", st, done)
		}
	}
}
