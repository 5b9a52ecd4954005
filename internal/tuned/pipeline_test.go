package tuned

import (
	"math/rand"
	"net"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/nominal"
)

// startEngineServer is startServer but hands back the engine too, for
// tests that assert on final engine state.
func startEngineServer(t *testing.T, sopts ...ServerOption) (*core.Tuner, string) {
	t.Helper()
	eng, err := core.NewTuner(testAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, sopts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return eng, ln.Addr().String()
}

// TestPipelinedReorderParity leases a batch over a pipelined connection
// and reports the trials back one at a time, in reverse lease order,
// from concurrent goroutines — so completions land out of order
// relative to the leases and to each other. The engine must end in the
// same state lockstep reporting reaches: every completion applied,
// nothing dropped, nothing left in flight.
func TestPipelinedReorderParity(t *testing.T) {
	const n = 8

	run := func(t *testing.T, opts ...ClientOption) (iters int) {
		eng, addr := startEngineServer(t)
		c, err := Dial(addr, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		lb, err := c.LeaseN(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(lb.Trials) != n {
			t.Fatalf("leased %d trials, want %d", len(lb.Trials), n)
		}

		var wg sync.WaitGroup
		errs := make([]error, n)
		for i := n - 1; i >= 0; i-- {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				tr := lb.Trials[i]
				res := []core.TrialResult{{ID: tr.ID, Value: testMeasure(tr.Algo, tr.Config)}}
				applied, dropped, err := c.CompleteN(lb.Epoch, res)
				if err != nil {
					errs[i] = err
					return
				}
				if len(applied) != 1 || len(dropped) != 0 {
					t.Errorf("trial %d: applied=%v dropped=%v", tr.ID, applied, dropped)
				}
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		c.Close() // hands back the trials a completion leased ahead
		st := eng.Stats()
		if st.InFlight != 0 {
			t.Fatalf("in-flight = %d after all reports, want 0", st.InFlight)
		}
		return eng.Iterations()
	}

	lockstep := run(t)
	pipelined := run(t, WithPipeline(0))
	if lockstep != n || pipelined != n {
		t.Fatalf("iterations: lockstep=%d pipelined=%d, want %d", lockstep, pipelined, n)
	}
}

// TestPipelinedCorrelation interleaves requests of different types from
// many goroutines on one pipelined connection. Every response must
// decode as its request's type — a correlation mix-up surfaces as a
// type-mismatch decode error or a wrong-shape answer.
func TestPipelinedCorrelation(t *testing.T) {
	_, addr := startEngineServer(t)
	c, err := Dial(addr, WithPipeline(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 25; i++ {
				switch rng.Intn(3) {
				case 0:
					lb, err := c.LeaseN(1)
					if err != nil {
						t.Errorf("LeaseN: %v", err)
						return
					}
					for _, tr := range lb.Trials {
						res := []core.TrialResult{{ID: tr.ID, Value: testMeasure(tr.Algo, tr.Config)}}
						if _, _, err := c.CompleteN(lb.Epoch, res); err != nil {
							t.Errorf("CompleteN: %v", err)
							return
						}
					}
				case 1:
					if _, err := c.Stats(); err != nil {
						t.Errorf("Stats: %v", err)
						return
					}
				case 2:
					if _, err := c.Best(); err != nil {
						t.Errorf("Best: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRebalanceClampsHoarder starves one session behind the global cap
// while another hoards it, then checks the server pushes back: the
// hoarder's next grant is clamped to the fair share and carries
// SuggestMax, and the stats surface counts the rebalance.
func TestRebalanceClampsHoarder(t *testing.T) {
	const cap = 8
	_, addr := startEngineServer(t, WithGlobalCap(cap), WithMaxBatch(cap))

	hoarder, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hoarder.Close()
	peer, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	// The hoarder takes the entire global cap and sits on it.
	lb, err := hoarder.LeaseN(cap)
	if err != nil {
		t.Fatal(err)
	}
	if len(lb.Trials) != cap {
		t.Fatalf("hoarder leased %d, want %d", len(lb.Trials), cap)
	}

	// The peer's request finds no capacity: an empty busy answer, and
	// the server notes the session starved.
	plb, err := peer.LeaseN(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plb.Trials) != 0 || plb.Retry <= 0 {
		t.Fatalf("starved peer got trials=%d retry=%v, want empty busy answer", len(plb.Trials), plb.Retry)
	}

	// The hoarder's next request gets clamped to the fair share
	// (cap / active sessions) and told to shrink its batches.
	hlb, err := hoarder.LeaseN(1)
	if err != nil {
		t.Fatal(err)
	}
	fair := cap / 2
	if hlb.SuggestMax != fair {
		t.Fatalf("SuggestMax = %d, want fair share %d", hlb.SuggestMax, fair)
	}
	if len(hlb.Trials) != 0 {
		t.Fatalf("hoarder at %d held got %d more trials, want 0", cap, len(hlb.Trials))
	}

	st, err := peer.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rebalanced == 0 {
		t.Fatal("StatsResp.Rebalanced = 0 after a clamped grant")
	}
}

// TestSessionSnapshot pins Session immutability: the handle keeps the
// worker identity and a private copy of the feature vector it was built
// with, unaffected by later mutation of the caller's slice, and options
// left unset inherit the client's dial-time identity and vector.
func TestSessionSnapshot(t *testing.T) {
	_, addr := startEngineServer(t)
	dialFeats := []float64{5}
	c, err := Dial(addr, WithWorker(9), WithFeatures(dialFeats))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dialFeats[0] = 99 // the client copied its vector at Dial

	feats := []float64{1, 2}
	s := c.Session(SessionWorker(7), SessionFeatures(feats))
	feats[0] = 99 // caller mutates its slice after the snapshot

	if s.Worker() != 7 {
		t.Fatalf("session worker = %d, want 7", s.Worker())
	}
	if got := s.Features(); got[0] != 1 || got[1] != 2 {
		t.Fatalf("session features = %v, want [1 2]", got)
	}
	s2 := c.Session()
	if s2.Worker() != 9 {
		t.Fatalf("default session worker = %d, want 9 from WithWorker", s2.Worker())
	}
	if got := s2.Features(); len(got) != 1 || got[0] != 5 {
		t.Fatalf("default session features = %v, want [5] from WithFeatures", got)
	}
	s2.Features()[0] = 42 // Features hands out a copy
	if got := c.Session().Features(); got[0] != 5 {
		t.Fatalf("client features changed to %v through a session copy", got)
	}

	// The session round-trips: leases and reports work through it.
	lb, err := s.LeaseN(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range lb.Trials {
		res := []core.TrialResult{{ID: tr.ID, Value: testMeasure(tr.Algo, tr.Config)}}
		if _, _, err := s.CompleteN(lb.Epoch, res); err != nil {
			t.Fatal(err)
		}
	}
}
