package tuned

import (
	"errors"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nominal"
)

// TestPipelinedBatchesStayCallerOwned runs several sessions over one
// pipelined client. The client decodes every reply into reused targets,
// so each session keeps every batch it got — Trials, Configs, and the
// applied/dropped slices of its CompleteN — next to a deep copy taken on
// arrival, and checks after all later batches have decoded that none of
// them changed.
func TestPipelinedBatchesStayCallerOwned(t *testing.T) {
	_, _, addr := startServer(t, []core.Option{core.WithMaxInFlight(256)})
	c, err := Dial(addr, WithPipeline(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type kept struct {
		trials, trialsCopy   []core.Trial
		applied, appliedCopy []uint64
		dropped, droppedCopy []uint64
	}
	const sessions, batches, n = 4, 40, 6
	var wg sync.WaitGroup
	for w := 0; w < sessions; w++ {
		wg.Add(1)
		go func(worker uint64) {
			defer wg.Done()
			s := c.Session(SessionWorker(worker))
			var all []kept
			for b := 0; b < batches; b++ {
				lb, err := s.LeaseN(n)
				if err != nil || len(lb.Trials) == 0 {
					t.Errorf("LeaseN: %d trials, %v", len(lb.Trials), err)
					return
				}
				k := kept{trials: lb.Trials, trialsCopy: cloneTrials(lb.Trials)}
				res := make([]core.TrialResult, 0, len(lb.Trials)+1)
				for _, tr := range lb.Trials {
					res = append(res, core.TrialResult{ID: tr.ID, Value: testMeasure(tr.Algo, tr.Config)})
				}
				// A repeated ID is dropped, so every ack has both lists.
				res = append(res, res[0])
				k.applied, k.dropped, err = s.CompleteN(lb.Epoch, res)
				if err != nil || len(k.applied) != len(lb.Trials) || len(k.dropped) != 1 {
					t.Errorf("CompleteN: applied %v dropped %v, %v", k.applied, k.dropped, err)
					return
				}
				k.appliedCopy, k.droppedCopy = slices.Clone(k.applied), slices.Clone(k.dropped)
				// Appending to a returned slice must not reach its
				// neighbour in the shared backing array.
				_ = append(k.applied, 0)
				for _, tr := range lb.Trials {
					_ = append(tr.Config, -1)
				}
				all = append(all, k)
			}
			for i, k := range all {
				if !trialsEqual(k.trials, k.trialsCopy) {
					t.Errorf("session %d batch %d: trials changed to %+v, leased %+v", worker, i, k.trials, k.trialsCopy)
				}
				if !slices.Equal(k.applied, k.appliedCopy) || !slices.Equal(k.dropped, k.droppedCopy) {
					t.Errorf("session %d batch %d: ack changed to %v/%v, got %v/%v", worker, i, k.applied, k.dropped, k.appliedCopy, k.droppedCopy)
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()
}

func cloneTrials(trs []core.Trial) []core.Trial {
	out := slices.Clone(trs)
	for i := range out {
		out[i].Config = slices.Clone(out[i].Config)
	}
	return out
}

func trialsEqual(a, b []core.Trial) bool {
	return slices.EqualFunc(a, b, func(x, y core.Trial) bool {
		return x.ID == y.ID && x.Algo == y.Algo && x.Deadline.Equal(y.Deadline) &&
			x.Speculative == y.Speculative && x.Pinned == y.Pinned && slices.Equal(x.Config, y.Config)
	})
}

// stallListener hands out connections whose next server write, once
// armed, blocks until released: the server withholds one reply.
type stallListener struct {
	net.Listener
	armed   atomic.Bool
	release chan struct{}
}

func (l *stallListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return stallConn{c, l}, nil
}

type stallConn struct {
	net.Conn
	l *stallListener
}

func (c stallConn) Write(p []byte) (int, error) {
	if c.l.armed.CompareAndSwap(true, false) {
		<-c.l.release
		return 0, net.ErrClosed
	}
	return c.Conn.Write(p)
}

// TestPipeTimeoutThenRedial withholds one pipelined reply until the
// request times out. The timed-out request fails with the pipe timeout;
// the next requests, on a redialled pipe, must each get their own
// answer — trials for a lease, their own IDs acknowledged for a
// completion — and not the stale error of the abandoned call.
func TestPipeTimeoutThenRedial(t *testing.T) {
	eng, err := core.NewTuner(testAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sl := &stallListener{Listener: ln, release: make(chan struct{})}
	go srv.Serve(sl)
	t.Cleanup(func() { srv.Close() })
	var once sync.Once
	release := func() { once.Do(func() { close(sl.release) }) }
	t.Cleanup(release) // runs before srv.Close: the stalled session must not wedge it

	c, err := Dial(ln.Addr().String(), WithPipeline(0),
		WithRequestTimeout(200*time.Millisecond), WithRetry(0, time.Millisecond, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	completeAll := func(lb LeaseBatch) {
		t.Helper()
		res := make([]core.TrialResult, len(lb.Trials))
		ids := make([]uint64, len(lb.Trials))
		for i, tr := range lb.Trials {
			res[i] = core.TrialResult{ID: tr.ID, Value: testMeasure(tr.Algo, tr.Config)}
			ids[i] = tr.ID
		}
		applied, dropped, err := c.CompleteN(lb.Epoch, res)
		if err != nil || !slices.Equal(applied, ids) || len(dropped) != 0 {
			t.Fatalf("CompleteN(%v) = applied %v dropped %v, %v", ids, applied, dropped, err)
		}
	}
	lb, err := c.LeaseN(2)
	if err != nil || len(lb.Trials) != 2 {
		t.Fatalf("warm-up LeaseN: %d trials, %v", len(lb.Trials), err)
	}
	completeAll(lb)
	// Hand back the trials the completion leased ahead, so the next
	// LeaseN goes to the wire.
	c.releaseHeld(nil, false)

	sl.armed.Store(true)
	if _, err := c.LeaseN(1); !errors.Is(err, errPipeTimeout) {
		t.Fatalf("LeaseN with its reply withheld: %v, want the pipe timeout", err)
	}
	for i := 0; i < 3; i++ {
		lb, err := c.LeaseN(3)
		if err != nil || len(lb.Trials) != 3 {
			t.Fatalf("LeaseN %d after the timeout: %d trials, %v", i, len(lb.Trials), err)
		}
		completeAll(lb)
	}
	release()
}
