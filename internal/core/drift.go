package core

import (
	"math"

	"repro/internal/checkpoint"
	"repro/internal/nominal"
	"repro/internal/search"
	"repro/internal/stats"
)

// Drift resilience. Online tuning assumes the cost landscape is
// stationary enough for accumulated evidence to stay meaningful; in
// production it is not — input corpora swap, machines warm up or get
// noisy neighbours, libraries are hot-patched. The drift watchdog runs
// online change-point detection over every algorithm's cost stream and,
// on a detected shift, resets the decision state so the tuner re-learns
// the new regime instead of defending a stale incumbent:
//
//   - soft reset (DriftDecay): the selector keeps a recent fraction of
//     its evidence (nominal.Decayable), enough to stay decisive if the
//     shift was small, little enough that a dethroned incumbent loses
//     its stale record;
//   - hard reset (DriftRefork): the selector forgets everything and the
//     init probe round restarts, for regimes assumed unrelated.
//
// Either way every algorithm is scheduled for a fixed number of forced
// re-probes, so arms starved by the old regime's winner get fresh
// samples under the new one, and — on sequential tuners — each
// algorithm's search.Restarting strategy is restarted, because the
// converged numeric configuration of the old context is a local optimum
// of a landscape that no longer exists.
//
// Detection is per-arm, on the log of the cost (so thresholds are
// relative, scale-free): a Page–Hinkley test catches abrupt mean shifts
// in either direction, an ADWIN-style adaptive window catches slower
// ones, and a MAD-based robust screen keeps isolated outliers (one
// straggling measurement) from reaching the detectors at all — only a
// run of consecutive outliers, which is a level shift and not noise, is
// let through.
//
// Resets are journaled as sentinel records alongside the observations
// (see checkpoint.Record.Drift), so a checkpointed run resumes with the
// same post-reset selector state, and sharded replicas re-fork at their
// next fold.

// DriftPolicy selects how the watchdog resets the selector on a
// detected change-point.
type DriftPolicy int

const (
	// DriftDecay soft-discounts the selector's evidence, keeping
	// KeepFraction of each arm's recent samples (nominal.Decayable).
	DriftDecay DriftPolicy = iota
	// DriftRefork hard-resets the selector to its initial state: all
	// evidence is dropped and the init probe round restarts.
	DriftRefork
)

// Drift watchdog defaults (see DefaultDriftConfig).
const (
	// DefaultPHDelta is the Page–Hinkley indifference margin on the
	// log-cost stream: shifts smaller than ~5% are tolerated.
	DefaultPHDelta = 0.05
	// DefaultPHLambda is the Page–Hinkley decision threshold. Under
	// stationary noise of standard deviation σ the PH statistic's
	// excursion scales like σ²/(2δ); 2.0 is ~8× that floor at σ = 0.2
	// (20% relative cost noise), so false alarms need a genuine shift.
	DefaultPHLambda = 2.0
	// DefaultADWINDelta is the adaptive window's Hoeffding confidence.
	DefaultADWINDelta = 0.002
	// DefaultMADWindow and DefaultMADK size the robust outlier screen:
	// an observation more than K·MAD from the recent median is screened.
	DefaultMADWindow = 16
	DefaultMADK      = 6.0
	// DefaultMADOutlierRun is the consecutive-outlier run length at
	// which the screen stops suppressing: that many outliers in a row
	// is a level shift the detectors must see, not noise.
	DefaultMADOutlierRun = 3
	// DefaultDriftMinObs is the per-arm warmup before the Page–Hinkley
	// test may fire.
	DefaultDriftMinObs = 8
	// DefaultDriftCooldown is the number of observations after a reset
	// during which detection is suppressed, letting the re-probe round
	// complete before the (intentionally perturbed) stream is judged.
	DefaultDriftCooldown = 16
	// DefaultKeepFraction is the evidence fraction DriftDecay retains.
	DefaultKeepFraction = 0.25
	// DefaultProbesPerArm is how many forced re-probes of every arm a
	// reset schedules.
	DefaultProbesPerArm = 2
)

// DriftConfig tunes the drift watchdog (see WithDriftWatchdog). The
// zero value of any field selects its default.
type DriftConfig struct {
	// PHDelta and PHLambda parameterize the Page–Hinkley test on the
	// per-arm log-cost stream (see stats.PageHinkley).
	PHDelta  float64
	PHLambda float64
	// ADWINDelta is the adaptive window's cut confidence (see
	// stats.AdaptiveWindow).
	ADWINDelta float64
	// MADWindow / MADK / MADOutlierRun configure the robust outlier
	// screen: observations beyond K·MAD of the recent median are kept
	// from the detectors unless MADOutlierRun arrive consecutively.
	MADWindow     int
	MADK          float64
	MADOutlierRun int
	// MinObs is the per-arm warmup before Page–Hinkley may fire.
	MinObs int
	// Cooldown suppresses detection for that many observations after a
	// reset.
	Cooldown int
	// Policy picks soft decay or hard refork; KeepFraction is the
	// evidence fraction DriftDecay retains.
	Policy       DriftPolicy
	KeepFraction float64
	// ProbesPerArm is how many forced re-probes of every arm each reset
	// schedules (0 disables re-probing; the selector's own init round
	// still covers arms whose evidence decayed away entirely).
	ProbesPerArm int
}

// DefaultDriftConfig returns the watchdog defaults.
func DefaultDriftConfig() DriftConfig {
	return DriftConfig{
		PHDelta:       DefaultPHDelta,
		PHLambda:      DefaultPHLambda,
		ADWINDelta:    DefaultADWINDelta,
		MADWindow:     DefaultMADWindow,
		MADK:          DefaultMADK,
		MADOutlierRun: DefaultMADOutlierRun,
		MinObs:        DefaultDriftMinObs,
		Cooldown:      DefaultDriftCooldown,
		Policy:        DriftDecay,
		KeepFraction:  DefaultKeepFraction,
		ProbesPerArm:  DefaultProbesPerArm,
	}
}

// withDefaults fills zero fields with the package defaults.
func (c DriftConfig) withDefaults() DriftConfig {
	d := DefaultDriftConfig()
	if c.PHDelta > 0 {
		d.PHDelta = c.PHDelta
	}
	if c.PHLambda > 0 {
		d.PHLambda = c.PHLambda
	}
	if c.ADWINDelta > 0 {
		d.ADWINDelta = c.ADWINDelta
	}
	if c.MADWindow > 0 {
		d.MADWindow = c.MADWindow
	}
	if c.MADK > 0 {
		d.MADK = c.MADK
	}
	if c.MADOutlierRun > 0 {
		d.MADOutlierRun = c.MADOutlierRun
	}
	if c.MinObs > 0 {
		d.MinObs = c.MinObs
	}
	if c.Cooldown > 0 {
		d.Cooldown = c.Cooldown
	}
	d.Policy = c.Policy
	if c.KeepFraction > 0 {
		d.KeepFraction = c.KeepFraction
	}
	if c.ProbesPerArm > 0 {
		d.ProbesPerArm = c.ProbesPerArm
	}
	return d
}

// WithDriftWatchdog enables the drift watchdog: online change-point
// detection over every algorithm's cost stream, with the configured
// reset policy on detection. Use DefaultDriftConfig() (or the zero
// DriftConfig) for the defaults. Scope: every constructor (it
// configures the underlying Tuner).
func WithDriftWatchdog(cfg DriftConfig) Option {
	return tunerOption("WithDriftWatchdog", func(t *Tuner) {
		t.drift = &driftWatchdog{cfg: cfg.withDefaults()}
	})
}

// DriftStats counts drift-watchdog events since construction.
type DriftStats struct {
	// Events counts detected change-points (= selector resets); Decays
	// and Reforks split them by the reset that was applied.
	Events, Decays, Reforks uint64
	// ProbesScheduled counts forced re-probe leases scheduled by
	// resets; PendingProbes is how many are still queued.
	ProbesScheduled uint64
	PendingProbes   int
	// Outliers counts observations the MAD screen kept from the
	// detectors.
	Outliers uint64
	// StaleDropped counts completions discarded because their trial was
	// leased before a drift reset: stale-regime evidence that would
	// re-poison the freshly decayed selector.
	StaleDropped uint64
	// Seq is the monotonic reset sequence number (journaled with each
	// sentinel so resume and replicas apply every reset exactly once).
	Seq uint64
	// QuarantineReprobes is guard.Quarantine's cumulative forced
	// re-probe count when the selector is quarantined (0 otherwise) —
	// surfaced here so one stats read covers both recovery mechanisms.
	QuarantineReprobes int
}

// driftWatchdog is the per-tuner detection state behind
// WithDriftWatchdog.
type driftWatchdog struct {
	cfg  DriftConfig
	arms []armDetector

	cooldown int   // observations until detection may fire again
	probeQ   []int // scheduled forced re-probes (arm indices)

	events, decays, reforks uint64
	probesScheduled         uint64
	outliers                uint64
	staleDrops              uint64
}

// armDetector is one algorithm's change-point detection state.
type armDetector struct {
	ph         *stats.PageHinkley
	aw         *stats.AdaptiveWindow
	mad        *stats.MADWindow
	outlierRun int
}

// init sizes the per-arm detectors; called from NewTuner after the
// option loop (the arm count is not known when the option runs).
func (d *driftWatchdog) init(n int) {
	d.arms = make([]armDetector, n)
	for i := range d.arms {
		d.arms[i] = armDetector{
			ph:  stats.NewPageHinkley(d.cfg.PHDelta, d.cfg.PHLambda, d.cfg.MinObs),
			aw:  stats.NewAdaptiveWindow(d.cfg.ADWINDelta),
			mad: stats.NewMADWindow(d.cfg.MADWindow, d.cfg.MADK),
		}
	}
}

// resetDetectors restarts every arm's detectors and the cooldown; the
// post-reset stream (re-probes included) is a fresh baseline.
func (d *driftWatchdog) resetDetectors() {
	for i := range d.arms {
		a := &d.arms[i]
		a.ph.Reset()
		a.aw.Reset()
		a.mad.Reset()
		a.outlierRun = 0
	}
	d.cooldown = d.cfg.Cooldown
}

// schedule enqueues per re-probes of every arm.
func (d *driftWatchdog) schedule(n, per int) {
	if per <= 0 {
		return
	}
	for p := 0; p < per; p++ {
		for a := 0; a < n; a++ {
			d.probeQ = append(d.probeQ, a)
		}
	}
	d.probesScheduled += uint64(per * n)
}

// takeProbes removes and returns up to k queued probes (the sharded
// engine distributes them across shards at fold time).
func (d *driftWatchdog) takeProbes(k int) []int {
	if k <= 0 || len(d.probeQ) == 0 {
		return nil
	}
	if k > len(d.probeQ) {
		k = len(d.probeQ)
	}
	out := append([]int(nil), d.probeQ[:k]...)
	d.probeQ = d.probeQ[:copy(d.probeQ, d.probeQ[k:])]
	return out
}

// driftObserve feeds one completed observation to the watchdog and
// fires the reset on a detected change-point. Pinned runs (degradation
// mode repeats the incumbent, not a fresh draw) and failures (their
// penalty is synthetic, and the failure path has its own machinery —
// guard.Quarantine, the failure-rate watchdog) never reach the
// detectors. During journal replay detection never fires: resets are
// re-applied from their journal sentinels (or deterministically by the
// replayed stream once warm), never invented — a detector warmed
// differently than the live run's (snapshots do not persist detector
// state) must not diverge the replay.
func (t *Tuner) driftObserve(c completion) {
	d := t.drift
	if c.pinned || c.fail != nil {
		return
	}
	x := c.value
	if x > 0 {
		x = math.Log(x)
	}
	a := &d.arms[c.algo]
	if d.cooldown > 0 {
		d.cooldown--
	}
	if a.mad.Outlier(x) {
		a.outlierRun++
		if a.outlierRun < d.cfg.MADOutlierRun {
			a.mad.Add(x)
			d.outliers++
			return
		}
	} else {
		a.outlierRun = 0
	}
	a.mad.Add(x)
	preLen := a.aw.Len()
	fired := a.ph.Add(x)
	post, total := 0, 0
	if fired {
		post, total = a.ph.PostShiftLen(), a.ph.N()
	}
	if a.aw.Add(x) {
		if !fired {
			// The adaptive window already cut to the post-change
			// suffix: its surviving length is the post-shift count.
			post, total = a.aw.Len(), preLen+1
		}
		fired = true
	}
	if fired && d.cooldown <= 0 && !t.replaying {
		// Adapt the keep fraction to the detector's change-point
		// estimate: retaining at most the post-shift fraction of each
		// arm's tail keeps the surviving evidence from spanning the
		// shift (a stale pre-shift best record would keep a dethroned
		// incumbent enthroned). KeepFraction is the cap for slow,
		// late-detected drifts.
		keep := d.cfg.KeepFraction
		if total > 0 {
			if adapt := float64(post) / float64(total); adapt < keep {
				keep = adapt
			}
		}
		t.driftReset(c.algo, keep)
	}
}

// driftReset applies the configured reset after a change-point on arm:
// discount (or drop) the selector's evidence, restart the numeric
// strategies (sequential tuners only — under a trial engine the
// proposers hold outstanding proposals the strategies must not be
// restarted beneath), schedule the re-probe round, and journal the
// sentinel so resume and sharded replicas replay the reset exactly
// once. keep is the (already change-point-adapted) evidence fraction
// for the decay policy; refork ignores it.
func (t *Tuner) driftReset(arm int, keep float64) {
	d := t.drift
	d.events++
	t.driftSeq++

	refork := d.cfg.Policy == DriftRefork
	if refork {
		keep = 0
	}
	t.applySelectorReset(refork, keep)
	if refork {
		d.reforks++
	} else {
		d.decays++
	}

	restartP1 := false
	if !t.engineOwned {
		for _, s := range t.strategies {
			if r, ok := s.(*search.Restarting); ok {
				r.Restart()
				restartP1 = true
			}
		}
	}

	d.schedule(len(t.algos), d.cfg.ProbesPerArm)
	d.resetDetectors()

	if t.ckptDir != "" && !t.replaying {
		t.journalDrift(arm, refork, keep, restartP1)
	}
}

// applySelectorReset discounts or drops the selector's evidence. A
// selector that is not Decayable (no package selector; only exotic
// user-provided ones) is re-initialized on refork and left untouched on
// decay — there is nothing gentler available.
func (t *Tuner) applySelectorReset(refork bool, keep float64) {
	if dec, ok := t.selector.(nominal.Decayable); ok {
		if refork {
			dec.Decay(0)
		} else {
			dec.Decay(keep)
		}
		return
	}
	if refork {
		t.selector.Init(len(t.algos))
	}
}

// journalDrift appends the reset's sentinel record to the write-ahead
// journal. The sentinel carries everything replay needs to re-apply the
// reset verbatim — kind, keep fraction, probe count, whether phase one
// was restarted — plus the sequence number that makes re-application
// idempotent.
func (t *Tuner) journalDrift(arm int, refork bool, keep float64, restartP1 bool) {
	if t.journal == nil {
		return
	}
	kind := checkpoint.DriftDecay
	if refork {
		kind = checkpoint.DriftRefork
	}
	rec := checkpoint.Record{
		Iter:        t.Iterations(),
		Drift:       kind,
		DriftSeq:    t.driftSeq,
		DriftArm:    arm,
		DriftKeep:   checkpoint.F(keep),
		DriftProbes: t.drift.cfg.ProbesPerArm,
		DriftP1:     restartP1,
	}
	if err := t.journal.AppendBuffered(rec); err != nil {
		t.ckptErr = err
	}
}

// applyDriftRecord re-applies a journaled drift sentinel during resume.
// The sequence guard makes it idempotent: a reset the replayed
// observation stream already re-fired (the sequential replay step
// runs through the live code, which bumps driftSeq itself) is
// skipped, and so is a reset already inside the snapshot.
func (t *Tuner) applyDriftRecord(rec checkpoint.Record) {
	if rec.DriftSeq <= t.driftSeq {
		return
	}
	t.driftSeq = rec.DriftSeq
	refork := rec.Drift == checkpoint.DriftRefork
	t.applySelectorReset(refork, float64(rec.DriftKeep))
	if rec.DriftP1 && !t.engineOwned {
		for _, s := range t.strategies {
			if r, ok := s.(*search.Restarting); ok {
				r.Restart()
			}
		}
	}
	if d := t.drift; d != nil {
		d.events++
		if refork {
			d.reforks++
		} else {
			d.decays++
		}
		d.schedule(len(t.algos), rec.DriftProbes)
		d.resetDetectors()
	}
}

// takeProbe pops the next scheduled forced re-probe, if any.
func (t *Tuner) takeProbe() (int, bool) {
	d := t.drift
	if d == nil || len(d.probeQ) == 0 {
		return 0, false
	}
	a := d.probeQ[0]
	d.probeQ = d.probeQ[:copy(d.probeQ, d.probeQ[1:])]
	return a, true
}

// DriftStats returns the drift-watchdog counters (zero without
// WithDriftWatchdog, except Seq and QuarantineReprobes, which are
// maintained regardless).
func (t *Tuner) DriftStats() DriftStats {
	s := DriftStats{Seq: t.driftSeq}
	if q, ok := t.selector.(interface{ Reprobes() int }); ok {
		s.QuarantineReprobes = q.Reprobes()
	}
	if d := t.drift; d != nil {
		s.Events = d.events
		s.Decays = d.decays
		s.Reforks = d.reforks
		s.ProbesScheduled = d.probesScheduled
		s.PendingProbes = len(d.probeQ)
		s.Outliers = d.outliers
		s.StaleDropped = d.staleDrops
	}
	return s
}

// DriftStats returns the drift-watchdog counters under the engine lock.
func (c *ConcurrentTuner) DriftStats() DriftStats {
	c.mu.Lock()
	defer c.unlock()
	return c.t.DriftStats()
}

// DriftStats folds every shard delta and returns the drift-watchdog
// counters, including probes still queued on shards.
func (e *ShardedEngine) DriftStats() DriftStats {
	e.Flush()
	ds := e.inner.DriftStats()
	if e.n > 1 {
		for _, s := range e.shards {
			s.mu.Lock()
			ds.PendingProbes += len(s.probeQ)
			s.mu.Unlock()
		}
	}
	return ds
}
