package tuned

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/nominal"
)

// Worker is the remote evaluation loop: lease a batch, measure every
// trial, report the batch, repeat. It is the process-boundary analogue
// of one core.RunPool goroutine — all tuning decisions stay on the
// server; the worker only runs the measurement function it was deployed
// with.
//
// Failure handling mirrors the in-process guard path: a panicking
// measurement becomes a FailN entry of kind panic, a non-finite sample
// one of kind invalid (JSON cannot carry NaN, and the engine would
// penalize it anyway). If the worker dies instead, its leases expire on
// the server and are reclaimed as timeouts — the same outcome, decided
// by the other side.
type Worker struct {
	// Client connects to the tuning server. Required.
	Client *Client
	// Measure evaluates one trial. Required.
	Measure core.Measure
	// Batch is the LeaseN/CompleteN batch size (≤ 0 means 1). Larger
	// batches amortize the network round trip exactly as LeaseN
	// amortizes the engine's lock round trip — at the price of staler
	// proposals within a batch.
	Batch int
	// MaxTrials stops the worker after completing this many trials
	// (0 = run until the server reports Done or ctx is cancelled).
	MaxTrials int
	// HeartbeatEvery is the interval at which outstanding leases are
	// extended while the batch is still measuring. Zero disables
	// heartbeats: then the lease TTL must exceed the worst-case batch
	// measurement time, or trials are reclaimed mid-measurement.
	HeartbeatEvery time.Duration
	// IdleRetry is the wait before re-asking a server whose empty or
	// busy lease response carried no retry hint (≤ 0 means 2ms). The
	// actual sleep is uniformly jittered in (retry/2, retry] so idle
	// workers do not re-poll in lockstep.
	IdleRetry time.Duration
	// Fallback, when non-nil with a Selector, enables degraded mode:
	// instead of giving up when the client's retry budget exhausts, the
	// worker keeps measuring against a local tuner and folds what it
	// learned back into the server once the partition heals.
	Fallback *Fallback
	// ID identifies this worker in Absorb deduplication and calibration.
	// Zero (the default) draws a random ID on first use; set it
	// explicitly when a restarted worker process must be recognized as
	// its predecessor.
	ID uint64
	// CalibrateEvery enables worker-bias calibration: before the first
	// lease and again every CalibrateEvery reported trials the worker
	// measures the server's reference algorithm (HelloAck.RefAlgo, at a
	// nil config — Measure must tolerate that when calibration is on)
	// three times and reports the median, so the server can divide this
	// worker's costs by its speed factor relative to the fleet's fastest
	// member. Zero disables calibration.
	CalibrateEvery int
	// Pipeline overlaps the wire with the measurement: the next lease
	// request is already in flight while the current batch measures, and
	// completion reports are sent asynchronously instead of blocking the
	// loop on their acks. Pair it with a Client dialed WithPipeline so
	// the overlapping requests multiplex one connection; it also works
	// (less efficiently) over a pooled client. Degraded-mode fallback
	// behaves exactly as in the lockstep loop.
	Pipeline bool
	// RefMeasure, when set, replaces Measure for the calibration probe.
	// The reference must be a fixed workload: if the probe ran the live
	// (possibly drifting) input instead, a worker calibrating after an
	// input change would report an inflated reference and every later
	// cost it sends would be deflated below the fleet's true floor.
	RefMeasure func() float64

	local *core.Tuner           // lazily built degraded-mode tuner
	seq   uint64                // absorb sequence; advances only on success
	pend  []nominal.Observation // delta not yet absorbed by the server

	statMu sync.Mutex
	stats  WorkerStats
}

// Fallback configures the worker's degraded mode. While the server is
// unreachable the worker tunes *algorithmic choice only*: a local
// core.Tuner over the handshake roster with empty parameter spaces, so
// every algorithm runs at its initial configuration. Parameter search
// needs the server's phase-two state and does not continue locally; the
// selector's observation stream does, and is exactly what the server's
// Absorb can fold back in.
type Fallback struct {
	// Selector builds the local nominal selector. Required.
	Selector func() nominal.Selector
	// Seed seeds the local tuner.
	Seed int64
	// ProbeEvery is how often the degraded worker probes the server for
	// a healed partition (≤ 0 means 250ms). Probes are single attempts
	// without retries, so they stay cheap while the partition holds.
	ProbeEvery time.Duration
	// MaxBuffer bounds the unflushed observation buffer; beyond it the
	// oldest observations are dropped and counted in WorkerStats (the
	// selector itself keeps learning — only the replay delta is capped).
	// ≤ 0 means 4096.
	MaxBuffer int
}

// WorkerStats counts what a worker has done, including degraded-mode
// activity. Read it via Worker.Stats at any time.
type WorkerStats struct {
	// Reported counts trials measured under a server lease and reported
	// (applied or dropped).
	Reported int
	// DegradedTrials counts measurements taken locally while partitioned.
	DegradedTrials int
	// Absorbed counts locally-learned observations the server
	// acknowledged applying after reconnect.
	Absorbed int
	// Partitions counts entries into degraded mode.
	Partitions int
	// DroppedObs counts buffered observations discarded at MaxBuffer.
	DroppedObs int
	// Calibrations counts acknowledged reference-probe reports; Factor
	// is the speed factor from the latest one (0 until calibrated).
	Calibrations int
	Factor       float64
}

// Stats returns a snapshot of the worker's counters.
func (w *Worker) Stats() WorkerStats {
	w.statMu.Lock()
	defer w.statMu.Unlock()
	return w.stats
}

func (w *Worker) bump(f func(*WorkerStats)) {
	w.statMu.Lock()
	f(&w.stats)
	w.statMu.Unlock()
}

// Run drives the loop until the server reports Done, MaxTrials is
// reached, ctx is cancelled, or the client's retry budget is exhausted
// against an unreachable server (with Fallback set the worker degrades
// instead of returning, and only gives up on cancellation or a
// permanent server error). It returns the number of trials reported
// under leases; degraded-mode work is accounted in Stats.
//
// Cancellation is deliberately abrupt: a cancelled worker abandons the
// batch it holds without completing it, modelling a killed process. The
// server reclaims those leases at their deadlines. Trials its client
// leased ahead stay with the client, which hands them back (see
// Client.CompleteN); a worker stopping on MaxTrials or Done hands them
// back at once.
func (w *Worker) Run(ctx context.Context) (int, error) {
	if w.Client == nil || w.Measure == nil {
		return 0, errors.New("tuned: Worker needs a Client and a Measure")
	}
	batch := w.Batch
	if batch < 1 {
		batch = 1
	}
	// A calibrated worker reports under its own identity through a
	// session, so workers sharing one Client keep their speed factors.
	sess := w.Client.Session()
	if w.CalibrateEvery > 0 {
		sess = w.Client.Session(SessionWorker(w.workerID()))
	}
	if w.Pipeline {
		return w.runPipelined(ctx, sess, batch)
	}
	completed := 0
	nextCal := 0 // calibrate before the first lease, then on the interval
	for {
		if err := ctx.Err(); err != nil {
			return completed, err
		}
		if w.MaxTrials > 0 && completed >= w.MaxTrials {
			w.stop(sess)
			return completed, nil
		}
		if w.CalibrateEvery > 0 && completed >= nextCal {
			w.calibrate()
			nextCal = completed + w.CalibrateEvery
		}
		n := batch
		if w.MaxTrials > 0 && w.MaxTrials-completed < n {
			n = w.MaxTrials - completed
		}
		lb, err := sess.LeaseN(n)
		if err != nil {
			if !w.degradable(err) {
				return completed, err
			}
			if derr := w.runDegraded(ctx); derr != nil {
				return completed, derr
			}
			continue
		}
		if lb.Done {
			w.stop(sess)
			return completed, nil
		}
		if len(lb.Trials) == 0 {
			select {
			case <-ctx.Done():
				return completed, ctx.Err()
			case <-time.After(w.idleWait(lb.Retry)):
			}
			continue
		}
		results, fails, abandoned := w.measureBatch(ctx, sess, lb)
		if abandoned {
			return completed, ctx.Err()
		}
		reported := 0
		err = nil
		if len(results) > 0 {
			if _, _, err = sess.CompleteN(lb.Epoch, results); err == nil {
				reported += len(results)
				results = nil
			}
		}
		if err == nil && len(fails) > 0 {
			if _, _, err = sess.FailN(lb.Epoch, fails); err == nil {
				reported += len(fails)
				fails = nil
			}
		}
		completed += reported
		w.bump(func(s *WorkerStats) { s.Reported += reported })
		if err != nil {
			if !w.degradable(err) {
				return completed, err
			}
			// The batch was measured but its report could not be
			// delivered. Its leases will expire server-side; preserve the
			// measurements as degraded-mode observations so the work is
			// not lost, then fall back.
			w.bufferUnreported(lb, results, fails)
			if derr := w.runDegraded(ctx); derr != nil {
				return completed, derr
			}
		}
	}
}

// pipelineReports bounds the completion acks a pipelined worker leaves
// outstanding before it blocks for the oldest one: enough to ride out
// ack latency, small enough that a failing server is noticed within a
// few batches.
const pipelineReports = 4

// runPipelined is the overlapped loop behind Worker.Pipeline: the next
// lease request is on the wire while the current batch measures, and
// completion reports settle asynchronously (at most pipelineReports
// outstanding). Its reports lease nothing ahead, so at most two batches
// are leased at once: the one measuring and the prefetched one.
// Accounting matches the lockstep loop — completed counts acked reports
// only — and a failed report is converted to degraded-mode observations
// exactly as there.
func (w *Worker) runPipelined(ctx context.Context, sess *Session, batch int) (int, error) {
	type leaseRes struct {
		lb  LeaseBatch
		err error
	}
	type ackRes struct {
		n       int // trials acked (applied or dropped)
		err     error
		lb      LeaseBatch
		results []core.TrialResult // unacked remainder on error
		fails   []core.TrialFailure
	}
	var (
		completed       = 0
		nextCal         = 0
		pendingReported = 0 // trials handed to in-flight reports
		measuring       = 0 // trials of the batch currently measuring
		inflight        []chan ackRes
		pendingLease    chan leaseRes
		firstErr        error
	)

	report := func(lb LeaseBatch, results []core.TrialResult, fails []core.TrialFailure) {
		ch := make(chan ackRes, 1)
		pendingReported += len(results) + len(fails)
		go func() {
			res := ackRes{lb: lb, results: results, fails: fails}
			if len(results) > 0 {
				// No lease ahead: startLease's prefetch already keeps
				// the next batch in flight.
				if _, _, err := sess.c.completeN(sess.worker, sess.feats, 0, lb.Epoch, results); err != nil {
					res.err = err
					ch <- res
					return
				}
				res.n += len(results)
				res.results = nil
			}
			if len(fails) > 0 {
				if _, _, err := sess.FailN(lb.Epoch, fails); err != nil {
					res.err = err
					ch <- res
					return
				}
				res.n += len(fails)
				res.fails = nil
			}
			ch <- res
		}()
		inflight = append(inflight, ch)
	}

	// drain settles outstanding reports down to limit, folding acked
	// counts into completed; a failed report's unacked remainder becomes
	// degraded-mode observations (when a Fallback exists to replay them).
	drain := func(limit int) {
		for len(inflight) > limit {
			res := <-inflight[0]
			inflight = inflight[1:]
			pendingReported -= res.n + len(res.results) + len(res.fails)
			completed += res.n
			if res.n > 0 {
				w.bump(func(s *WorkerStats) { s.Reported += res.n })
			}
			if res.err != nil {
				if firstErr == nil {
					firstErr = res.err
				}
				if w.degradable(res.err) {
					w.bufferUnreported(res.lb, res.results, res.fails)
				}
			}
		}
	}

	// startLease fires the next lease request, capped by what MaxTrials
	// still has room for counting everything not yet acked; false means
	// no room until reports settle.
	startLease := func() bool {
		n := batch
		if w.MaxTrials > 0 {
			if room := w.MaxTrials - completed - pendingReported - measuring; room < n {
				n = room
			}
		}
		if n < 1 {
			return false
		}
		ch := make(chan leaseRes, 1)
		go func() {
			lb, err := sess.LeaseN(n)
			ch <- leaseRes{lb, err}
		}()
		pendingLease = ch
		return true
	}

	// handleErr routes one failure like the lockstep loop: degrade when
	// a Fallback allows it, return otherwise.
	handleErr := func(err error) (resume bool, fatal error) {
		if !w.degradable(err) {
			return false, err
		}
		if derr := w.runDegraded(ctx); derr != nil {
			return false, derr
		}
		return true, nil
	}

	for {
		if err := ctx.Err(); err != nil {
			drain(0)
			return completed, err
		}
		drain(pipelineReports)
		if firstErr != nil {
			err := firstErr
			firstErr = nil
			if resume, fatal := handleErr(err); !resume {
				drain(0)
				return completed, fatal
			}
			continue
		}
		if w.MaxTrials > 0 && completed+pendingReported >= w.MaxTrials {
			drain(0)
			if firstErr != nil {
				continue // failed reports freed budget; decide again
			}
			if completed >= w.MaxTrials {
				return completed, nil
			}
			continue
		}
		if w.CalibrateEvery > 0 && completed >= nextCal {
			w.calibrate()
			nextCal = completed + w.CalibrateEvery
		}
		if pendingLease == nil && !startLease() {
			drain(0) // no lease room until the outstanding acks settle
			continue
		}
		var res leaseRes
		select {
		case <-ctx.Done():
			drain(0)
			return completed, ctx.Err()
		case res = <-pendingLease:
		}
		pendingLease = nil
		if res.err != nil {
			if resume, fatal := handleErr(res.err); !resume {
				drain(0)
				return completed, fatal
			}
			continue
		}
		lb := res.lb
		if lb.Done {
			drain(0)
			return completed, nil
		}
		if lb.SuggestMax > 0 && lb.SuggestMax < batch {
			// The server is rebalancing: peers starve behind this
			// worker's holdings, so shrink the ask instead of making the
			// server clamp every request.
			batch = lb.SuggestMax
		}
		if len(lb.Trials) == 0 {
			select {
			case <-ctx.Done():
				drain(0)
				return completed, ctx.Err()
			case <-time.After(w.idleWait(lb.Retry)):
			}
			continue
		}
		measuring = len(lb.Trials)
		startLease() // prefetch: the next batch flies while this one measures
		results, fails, abandoned := w.measureBatch(ctx, sess, lb)
		measuring = 0
		if abandoned {
			drain(0)
			return completed, ctx.Err()
		}
		report(lb, results, fails)
	}
}

// stop hands back the trials the session's completions leased ahead
// (see Client.CompleteN) when the worker stops cleanly, on MaxTrials or
// Done, so the server takes them back instead of charging them as
// timeouts when their leases expire.
func (w *Worker) stop(sess *Session) {
	w.Client.releaseHeld(sess.feats, false)
}

// idleWait turns an empty-lease retry hint into a jittered sleep: the
// hint (or IdleRetry, or 2ms) is the ceiling, and the wait is drawn
// uniformly from its upper half so a fleet of idle workers spreads out.
func (w *Worker) idleWait(hint time.Duration) time.Duration {
	retry := hint
	if retry <= 0 {
		retry = w.IdleRetry
	}
	if retry <= 0 {
		retry = 2 * time.Millisecond
	}
	return retry/2 + time.Duration(rand.Int63n(int64(retry/2)+1))
}

// degradable reports whether an error should push the worker into
// degraded mode rather than out of Run: transport exhaustion qualifies;
// explicit server answers (*RemoteError) and a closed client are
// permanent.
func (w *Worker) degradable(err error) bool {
	if w.Fallback == nil || w.Fallback.Selector == nil {
		return false
	}
	if errors.Is(err, ErrClosed) {
		return false
	}
	var re *RemoteError
	return !errors.As(err, &re)
}

// bufferUnreported converts an unreportable measured batch into
// degraded-mode observations, preserving the algorithm attribution the
// server would have recorded.
func (w *Worker) bufferUnreported(lb LeaseBatch, results []core.TrialResult, fails []core.TrialFailure) {
	algoOf := make(map[uint64]int, len(lb.Trials))
	for _, tr := range lb.Trials {
		algoOf[tr.ID] = tr.Algo
	}
	for _, r := range results {
		w.pend = append(w.pend, nominal.Observation{Arm: algoOf[r.ID], Value: r.Value})
	}
	for _, f := range fails {
		w.pend = append(w.pend, nominal.Observation{Arm: algoOf[f.ID], Value: f.Failure.Penalty, Failed: true})
	}
}

// calibrate runs the reference probe — three measurements of the
// server's reference algorithm, median-filtered so one scheduling
// hiccup cannot masquerade as a 3× slowdown — and reports it. Errors
// are swallowed: a failed probe or an unreachable server just leaves
// the previous factor in place until the next interval.
func (w *Worker) calibrate() {
	ref := core.Trial{Algo: w.Client.RefAlgo()}
	probe := func() (float64, *guard.Failure) { return w.measureOne(ref) }
	if w.RefMeasure != nil {
		probe = w.refOne
	}
	samples := make([]float64, 0, 3)
	for i := 0; i < 3; i++ {
		v, fail := probe()
		if fail != nil {
			return
		}
		samples = append(samples, v)
	}
	slices.Sort(samples)
	factor, _, err := w.Client.Calibrate(w.workerID(), samples[1])
	if err != nil {
		return
	}
	w.bump(func(s *WorkerStats) {
		s.Calibrations++
		s.Factor = factor
	})
}

// workerID returns the stable ID used in Absorb dedup, drawing a random
// one on first use. Run is single-goroutine, so no lock.
func (w *Worker) workerID() uint64 {
	if w.ID == 0 {
		w.ID = rand.Uint64() | 1
	}
	return w.ID
}

// runDegraded is the partition loop: measure against a local tuner over
// the handshake roster, probe the server, and on reconnect flush the
// accumulated observation delta via Absorb. Returns nil once the delta
// is fully flushed (the caller re-enters leased operation), or the
// context/permanent error that ended degraded mode.
func (w *Worker) runDegraded(ctx context.Context) error {
	fb := w.Fallback
	if w.local == nil {
		names := w.Client.Algos()
		if len(names) == 0 {
			return errors.New("tuned: degraded mode needs the handshake roster")
		}
		algos := make([]core.Algorithm, len(names))
		for i, name := range names {
			algos[i] = core.Algorithm{Name: name}
		}
		lt, err := core.NewTuner(algos, fb.Selector(), nil, fb.Seed,
			core.WithGuard(), core.WithoutHistory())
		if err != nil {
			return err
		}
		w.local = lt
	}
	probe := fb.ProbeEvery
	if probe <= 0 {
		probe = 250 * time.Millisecond
	}
	maxBuf := fb.MaxBuffer
	if maxBuf <= 0 {
		maxBuf = 4096
	}
	w.bump(func(s *WorkerStats) { s.Partitions++ })
	lastProbe := time.Now()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		rec := w.local.Step(w.Measure)
		w.pend = append(w.pend, nominal.Observation{Arm: rec.Algo, Value: rec.Value, Failed: rec.Failed})
		if over := len(w.pend) - maxBuf; over > 0 {
			w.pend = w.pend[over:]
			w.bump(func(s *WorkerStats) { s.DroppedObs += over })
		}
		w.bump(func(s *WorkerStats) { s.DegradedTrials++ })
		if time.Since(lastProbe) < probe {
			continue
		}
		lastProbe = time.Now()
		if w.Client.Ping() != nil {
			continue // still partitioned
		}
		err := w.flushPending()
		if err == nil {
			return nil // reconnected, delta folded in; resume leasing
		}
		if !w.degradable(err) {
			return err
		}
		// The partition re-appeared mid-flush; whatever was not yet
		// acknowledged is still in pend. Keep measuring.
	}
}

// flushPending absorbs the buffered delta into the server in bounded
// chunks. Each chunk gets the next sequence number, which only advances
// after the server acknowledges it — so a retried chunk whose ack was
// lost is deduplicated server-side, and a transport failure leaves the
// unacknowledged tail in place for the next flush.
func (w *Worker) flushPending() error {
	const chunk = 512
	for len(w.pend) > 0 {
		n := min(chunk, len(w.pend))
		applied, duplicate, err := w.Client.Absorb(w.workerID(), w.seq+1, w.pend[:n])
		if err != nil {
			return err
		}
		w.seq++
		w.pend = w.pend[n:]
		if !duplicate {
			w.bump(func(s *WorkerStats) { s.Absorbed += applied })
		}
	}
	return nil
}

// measureBatch runs every trial of a batch, heartbeating the not-yet-
// measured leases in the background. abandoned reports a cancellation
// mid-batch: the remaining leases are left to expire server-side.
func (w *Worker) measureBatch(ctx context.Context, sess *Session, lb LeaseBatch) (results []core.TrialResult, fails []core.TrialFailure, abandoned bool) {
	var (
		mu      sync.Mutex // guards outstanding under the heartbeat goroutine
		outst   = make([]uint64, 0, len(lb.Trials))
		stopHB  chan struct{}
		hbWG    sync.WaitGroup
		dropped map[uint64]bool
	)
	for _, tr := range lb.Trials {
		outst = append(outst, tr.ID)
	}
	if w.HeartbeatEvery > 0 {
		stopHB = make(chan struct{})
		hbWG.Add(1)
		go func() {
			defer hbWG.Done()
			t := time.NewTicker(w.HeartbeatEvery)
			defer t.Stop()
			for {
				select {
				case <-stopHB:
					return
				case <-t.C:
					mu.Lock()
					ids := append([]uint64(nil), outst...)
					mu.Unlock()
					if len(ids) == 0 {
						return
					}
					alive, err := sess.Heartbeat(lb.Epoch, ids)
					if err != nil {
						continue // transient; the next tick retries
					}
					live := make(map[uint64]bool, len(alive))
					for _, id := range alive {
						live[id] = true
					}
					mu.Lock()
					if dropped == nil {
						dropped = make(map[uint64]bool)
					}
					for _, id := range ids {
						if !live[id] {
							dropped[id] = true
						}
					}
					mu.Unlock()
				}
			}
		}()
	}

	for _, tr := range lb.Trials {
		if ctx.Err() != nil {
			abandoned = true
			break
		}
		mu.Lock()
		dead := dropped[tr.ID]
		mu.Unlock()
		if dead {
			// The server reclaimed this lease (e.g. a previous trial of
			// the batch overran the TTL without heartbeats extending this
			// one in time); measuring it would be wasted work.
			continue
		}
		value, fail := w.measureOne(tr)
		mu.Lock()
		for i, id := range outst {
			if id == tr.ID {
				outst = append(outst[:i], outst[i+1:]...)
				break
			}
		}
		mu.Unlock()
		if fail != nil {
			fails = append(fails, core.TrialFailure{ID: tr.ID, Failure: *fail})
		} else {
			results = append(results, core.TrialResult{ID: tr.ID, Value: value})
		}
	}
	if stopHB != nil {
		close(stopHB)
		hbWG.Wait()
	}
	return results, fails, abandoned
}

// refOne runs one reference-probe measurement with the same panic and
// non-finite containment as measureOne.
func (w *Worker) refOne() (value float64, fail *guard.Failure) {
	defer func() {
		if r := recover(); r != nil {
			fail = &guard.Failure{Kind: guard.Panic, Err: fmt.Errorf("tuned: reference probe panic: %v", r)}
		}
	}()
	v := w.RefMeasure()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, &guard.Failure{Kind: guard.Invalid, Err: fmt.Errorf("tuned: non-finite reference %v", v)}
	}
	return v, nil
}

// measureOne runs one measurement with panic and non-finite-sample
// containment.
func (w *Worker) measureOne(tr core.Trial) (value float64, fail *guard.Failure) {
	defer func() {
		if r := recover(); r != nil {
			fail = &guard.Failure{Kind: guard.Panic, Algo: tr.Algo, Err: fmt.Errorf("tuned: measurement panic: %v", r)}
		}
	}()
	v := w.Measure(tr.Algo, tr.Config)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, &guard.Failure{Kind: guard.Invalid, Algo: tr.Algo, Err: fmt.Errorf("tuned: non-finite measurement %v", v)}
	}
	return v, nil
}
