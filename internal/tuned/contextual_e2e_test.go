package tuned

import (
	"net"
	"testing"

	"repro/internal/core"
	"repro/internal/ctxtune"
	"repro/internal/nominal"
)

// The server's structural extension interface must match what
// ctxtune.Engine actually exports — this is the only place the two
// packages meet, so pin it at compile time.
var (
	_ Engine           = (*ctxtune.Engine)(nil)
	_ contextualEngine = (*ctxtune.Engine)(nil)
)

// Two-regime wire model, mirroring the ctxtune engine tests: features
// [1] are the cheap class (algorithm a wins, 1 vs 3), features [100]
// the dear class (algorithm b wins, 9 vs 30). A global tuner must
// compromise; a contextual server must learn both winners.
var (
	wireCheap = []float64{1}
	wireDear  = []float64{100}
)

func wireClassCost(f []float64, algo int) float64 {
	if f[0] < 50 {
		if algo == 0 {
			return 1
		}
		return 3
	}
	if algo == 1 {
		return 9
	}
	return 30
}

func startContextualServer(t *testing.T) (*ctxtune.Engine, string) {
	t.Helper()
	eng, err := ctxtune.New(ctxtune.Config{
		Algos: []core.Algorithm{{Name: "a"}, {Name: "b"}},
		Selector: func() nominal.Selector {
			return &nominal.EpsilonGreedy{Eps: 0.10, RecencyWindow: 25}
		},
		Seed:        7,
		Partitioner: ctxtune.NewTree(1, 32, 1.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return eng, ln.Addr().String()
}

// TestContextualWireRouting drives mixed two-class traffic through real
// TCP clients and checks the server discovers both contexts and serves
// each class its own winner.
func TestContextualWireRouting(t *testing.T) {
	eng, addr := startContextualServer(t)

	cheap, err := Dial(addr, WithFeatures(wireCheap))
	if err != nil {
		t.Fatal(err)
	}
	defer cheap.Close()
	dear, err := Dial(addr, WithFeatures(wireDear))
	if err != nil {
		t.Fatal(err)
	}
	defer dear.Close()

	drive := func(c *Client, f []float64) {
		lb, err := c.LeaseN(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range lb.Trials {
			if _, _, err := c.CompleteN(lb.Epoch, []core.TrialResult{
				{ID: tr.ID, Value: wireClassCost(f, tr.Algo)},
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 300; i++ {
		drive(cheap, wireCheap)
		drive(dear, wireDear)
	}

	st, err := cheap.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Contexts < 2 {
		t.Fatalf("server reports %d contexts, want >= 2 (split never happened)", st.Contexts)
	}
	if st.Iterations != 600 {
		t.Errorf("Iterations = %d, want 600", st.Iterations)
	}

	// Majority pick per class after learning.
	for _, tc := range []struct {
		c    *Client
		f    []float64
		want int
	}{{cheap, wireCheap, 0}, {dear, wireDear, 1}} {
		picks := make(map[int]int)
		for i := 0; i < 20; i++ {
			lb, err := tc.c.LeaseN(1)
			if err != nil {
				t.Fatal(err)
			}
			picks[lb.Trials[0].Algo]++
			tc.c.CompleteN(lb.Epoch, []core.TrialResult{
				{ID: lb.Trials[0].ID, Value: wireClassCost(tc.f, lb.Trials[0].Algo)},
			})
		}
		if picks[tc.want] <= picks[1-tc.want] {
			t.Errorf("class %v picks = %v, want majority on %d", tc.f, picks, tc.want)
		}
	}

	// An explicit per-request vector overrides the sticky one.
	lb, err := cheap.LeaseNFor(wireDear, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ctx := eng.Contexts(); len(ctx) == 0 {
		t.Fatal("engine lost its contexts")
	}
	cheap.CompleteN(lb.Epoch, []core.TrialResult{{ID: lb.Trials[0].ID, Value: 9}})
}

// TestRawFrameClientOnContextualServer: a client in raw v3 packed
// frames that sends no features anywhere must tune against a contextual
// server's global context.
func TestRawFrameClientOnContextualServer(t *testing.T) {
	eng, addr := startContextualServer(t)

	r := dialRaw(t, addr, false)
	trials := r.lease(4)
	if len(trials) == 0 {
		t.Fatal("raw client leased no trials from contextual server")
	}
	ids := make([]uint64, len(trials))
	for i, tr := range trials {
		ids[i] = tr.ID
	}
	if ack := r.complete(r.epoch, ids); len(ack.Applied) != len(ids) {
		t.Fatalf("completions applied=%v dropped=%v", ack.Applied, ack.Dropped)
	}

	// Feature-less traffic lands on the global tuner, creating no
	// contexts.
	if n := eng.ContextCount(); n != 0 {
		t.Errorf("feature-less traffic materialized %d contexts, want 0", n)
	}
	if it := eng.Iterations(); it != len(ids) {
		t.Errorf("Iterations = %d, want %d", it, len(ids))
	}
}
