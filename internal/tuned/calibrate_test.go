package tuned

import (
	"context"
	"math"
	"net"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/nominal"
	"repro/internal/param"
)

// TestCalibrateProtocol covers the TCalibrate round trip: factors are
// relative to the fleet-fastest reference, re-calibration updates them,
// and a new fastest worker lowers the baseline for everyone.
func TestCalibrateProtocol(t *testing.T) {
	_, _, addr := startServer(t, nil)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if got := c.RefAlgo(); got != 0 {
		t.Fatalf("RefAlgo() = %d, want the default 0", got)
	}
	// First worker defines the baseline: factor 1 by construction.
	f, base, err := c.Calibrate(1, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if f != 1 || base != 2.0 {
		t.Fatalf("first Calibrate = (%g, %g), want (1, 2)", f, base)
	}
	// A 4×-slower worker gets factor 4 against that baseline.
	f, base, err = c.Calibrate(2, 8.0)
	if err != nil {
		t.Fatal(err)
	}
	if f != 4 || base != 2.0 {
		t.Fatalf("slow Calibrate = (%g, %g), want (4, 2)", f, base)
	}
	// A faster newcomer lowers the baseline; its own factor is 1 and the
	// others' factors rise on their next report.
	f, base, err = c.Calibrate(3, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if f != 1 || base != 1.0 {
		t.Fatalf("fast Calibrate = (%g, %g), want (1, 1)", f, base)
	}
	if f, _, err = c.Calibrate(2, 8.0); err != nil || f != 8 {
		t.Fatalf("re-Calibrate after baseline drop = (%g, %v), want factor 8", f, err)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Calibrated != 3 {
		t.Fatalf("Stats.Calibrated = %d, want 3", st.Calibrated)
	}
}

// TestCalibrateRejectsGarbage: zero worker IDs and non-positive or
// non-finite references are bad requests, not table entries.
func TestCalibrateRejectsGarbage(t *testing.T) {
	_, _, addr := startServer(t, nil)
	for _, tc := range []struct {
		worker uint64
		ref    float64
	}{
		{0, 1.0}, {1, 0}, {1, -3}, {1, math.Inf(1)}, {1, math.NaN()},
	} {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Calibrate(tc.worker, tc.ref); err == nil {
			t.Errorf("Calibrate(%d, %g) succeeded, want rejection", tc.worker, tc.ref)
		}
		c.Close()
	}
}

// TestCalibrateNormalizesReports: a worker-stamped CompleteN batch is
// divided by the worker's factor before reaching the selector, so a
// slow machine's costs land in fleet-normalized units.
func TestCalibrateNormalizesReports(t *testing.T) {
	_, eng, addr := startServer(t, nil)
	c, err := Dial(addr, WithWorker(9))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, _, err := c.Calibrate(7, 1.0); err != nil { // baseline
		t.Fatal(err)
	}
	if _, _, err := c.Calibrate(9, 4.0); err != nil { // 4× slower
		t.Fatal(err)
	}
	lb, err := c.LeaseN(1)
	if err != nil || len(lb.Trials) != 1 {
		t.Fatalf("LeaseN: %v (%d trials)", err, len(lb.Trials))
	}
	// The slow worker measures 8.0 of wall time; normalized that is 2.0.
	if _, _, err := c.CompleteN(lb.Epoch, []core.TrialResult{{ID: lb.Trials[0].ID, Value: 8.0}}); err != nil {
		t.Fatal(err)
	}
	if _, _, v := eng.Best(); v != 2.0 {
		t.Fatalf("normalized best = %g, want 2.0", v)
	}
}

// TestCalibrateHeterogeneousFleet is the end-to-end bias property: two
// workers measure the same synthetic costs, but one runs on a 4×-slower
// "machine". Calibrated, both report in fleet units and the selector's
// per-arm record stays within the true cost range; the slow worker's
// reference probe lands as factor ≈ 4.
func TestCalibrateHeterogeneousFleet(t *testing.T) {
	eng, err := core.NewTuner(testAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, WithTrialTarget(120))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()

	// Establish the fleet baseline up front (a control client standing in
	// for the fastest machine: testMeasure(0, nil) = 3.0), so the slow
	// worker's first calibration already lands at its true factor instead
	// of depending on which worker happens to calibrate first.
	ctl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if _, _, err := ctl.Calibrate(99, 3.0); err != nil {
		t.Fatal(err)
	}

	slowdown := map[uint64]float64{1: 1.0, 2: 4.0}
	var wg sync.WaitGroup
	workers := make([]*Worker, 0, 2)
	for id, slow := range slowdown {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		w := &Worker{
			Client: c,
			Measure: func(algo int, cfg param.Config) float64 {
				return slow * testMeasure(algo, cfg)
			},
			Batch:          4,
			ID:             id,
			CalibrateEvery: 32,
		}
		workers = append(workers, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(context.Background())
		}()
	}
	wg.Wait()

	var slowW *Worker
	for _, w := range workers {
		ws := w.Stats()
		if ws.Calibrations == 0 {
			t.Fatalf("worker %d never calibrated: %+v", w.ID, ws)
		}
		if w.ID == 2 {
			slowW = w
		}
	}
	if f := slowW.Stats().Factor; f < 3.5 || f > 4.5 {
		t.Errorf("slow worker's factor = %g, want ≈ 4", f)
	}
	// testMeasure ranges over [3, 3.1] for arm 0 and [5, 5.1] for arm 1;
	// without calibration the slow worker would have pushed values up to
	// 4× that into the record. Normalized, the global best must sit in
	// the true arm-0 range.
	if _, _, v := eng.Best(); v < 2.5 || v > 3.2 {
		t.Errorf("fleet-normalized best = %g, want within arm 0's true range [3, 3.1]", v)
	}
}

// recordingEngine records every value that reaches the engine's
// CompleteN, i.e. each report after calibration normalized it.
type recordingEngine struct {
	Engine
	mu     sync.Mutex
	values []float64
}

func (e *recordingEngine) CompleteN(results []core.TrialResult) []error {
	e.mu.Lock()
	for _, r := range results {
		e.values = append(e.values, r.Value)
	}
	e.mu.Unlock()
	return e.Engine.CompleteN(results)
}

// TestCalibrateSharedClient is TestCalibrateHeterogeneousFleet with both
// calibrated workers on one Client, in both worker loops. Each must
// report under its own ID: if one worker's identity were stamped on the
// other's reports, the fast worker's costs would be divided by 4 or the
// slow worker's left 4× too high. The reference probe is deterministic,
// so every normalized value must land exactly in testMeasure's true
// range.
func TestCalibrateSharedClient(t *testing.T) {
	for _, pipeline := range []bool{false, true} {
		name := map[bool]string{false: "lockstep", true: "pipelined"}[pipeline]
		t.Run(name, func(t *testing.T) { testCalibrateSharedClient(t, pipeline) })
	}
}

func testCalibrateSharedClient(t *testing.T, pipeline bool) {
	inner, err := core.NewTuner(testAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := &recordingEngine{Engine: inner}
	srv := NewServer(eng, WithTrialTarget(120))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	var opts []ClientOption
	if pipeline {
		opts = append(opts, WithPipeline(0))
	}
	c, err := Dial(ln.Addr().String(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Calibrate(99, 3.0); err != nil { // fleet baseline
		t.Fatal(err)
	}

	// Both workers hold a leased trial before either reports, so their
	// runs overlap on the shared client.
	var started sync.WaitGroup
	started.Add(2)
	var wg sync.WaitGroup
	workers := make([]*Worker, 0, 2)
	for id, slow := range map[uint64]float64{1: 1.0, 2: 4.0} {
		var once sync.Once
		w := &Worker{
			Client: c,
			Measure: func(algo int, cfg param.Config) float64 {
				once.Do(func() { started.Done(); started.Wait() })
				return slow * testMeasure(algo, cfg)
			},
			RefMeasure:     func() float64 { return slow * 3.0 },
			Batch:          4,
			ID:             id,
			CalibrateEvery: 32,
			Pipeline:       pipeline,
		}
		workers = append(workers, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := w.Run(context.Background()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	for _, w := range workers {
		want := map[uint64]float64{1: 1, 2: 4}[w.ID]
		if f := w.Stats().Factor; f != want {
			t.Errorf("worker %d factor = %g, want %g", w.ID, f, want)
		}
	}
	eng.mu.Lock()
	defer eng.mu.Unlock()
	if len(eng.values) == 0 {
		t.Fatal("no reports reached the engine")
	}
	for _, v := range eng.values {
		if v < 3 || v > 5.1 {
			t.Fatalf("normalized report %g outside the true cost range [3, 5.1]", v)
		}
	}
}
