package wire

import "hash/crc32"

// Message payloads. Each struct here is the JSON body of exactly one
// frame Type: the handshake, control and introspection messages. The
// trial messages are packed (packed.go). Fields are additive-only within
// a protocol version: decoders ignore unknown fields, so new optional
// fields need no version bump. Every payload implements the Payload
// codec interface; for this family the two methods are the shared JSON
// helpers.

// ConfigHash summarizes an algorithm roster for the handshake: workers
// refuse to feed measurements into a run whose algorithm indices mean
// something else. It lives with the protocol because both sides of the
// wire — and the tenant registry keying handshakes — must compute it
// identically.
func ConfigHash(algos []string) uint32 {
	h := crc32.NewIEEE()
	for _, a := range algos {
		h.Write([]byte(a))
		h.Write([]byte{0})
	}
	return h.Sum32()
}

// Hello opens every connection (frame THello). The client states its
// protocol version, which must be Version, and, when it already knows
// it, the config hash of the tuning run it expects to join; a zero hash
// accepts whatever the server runs (the hash is then learned from the
// ack and pinned for subsequent reconnects).
type Hello struct {
	Proto int    `json:"proto"`
	Hash  uint32 `json:"hash,omitempty"`
	Name  string `json:"name,omitempty"`
	// Tenant names the tuning problem this session joins on a
	// multi-tenant server. Empty means the "default" tenant, the only
	// one a server over one engine has.
	Tenant string `json:"tenant,omitempty"`
}

// HelloAck (frame THelloAck) is the server's capability statement: its
// config hash (over the algorithm roster), the session epoch stamping
// every lease this server process issues, the algorithm names (index =
// wire algorithm index, so a worker can build its measurement table
// without out-of-band configuration), and the lease TTL workers should
// heartbeat well inside of.
type HelloAck struct {
	Proto      int      `json:"proto"`
	Hash       uint32   `json:"hash"`
	Epoch      int64    `json:"epoch"`
	Algos      []string `json:"algos"`
	LeaseTTLMS int64    `json:"lease_ttl_ms"`
	// RefAlgo is the algorithm index workers should use as the speed
	// reference when calibrating (see CalibrateReq). Optional — servers
	// that do not calibrate omit it, and 0 (the first algorithm) is a
	// valid reference, so workers gate calibration on their own flag, not
	// on this field.
	RefAlgo int `json:"ref_algo,omitempty"`
	// Tenant echoes the tenant this session was routed to, which for an
	// empty Hello.Tenant is "default" — the one field a client needs to
	// learn where it actually landed.
	Tenant string `json:"tenant,omitempty"`
}

// LeaseNResp (frame TTrials), Trial, CompleteNReq (frame TCompleteN)
// and Result are the JSON trial messages of protocol versions 1 and 2,
// which this server no longer speaks: a JSON trial frame on a session
// is answered "unexpected frame". They stay only because the benchmark
// module's wire.json.* rung measures JSON trial payloads against the
// packed ones (bench/rungs.go); they go when that rung does.

// LeaseNResp is the JSON form of PackedTrials.
type LeaseNResp struct {
	Epoch      int64   `json:"epoch"`
	Trials     []Trial `json:"trials,omitempty"`
	Done       bool    `json:"done,omitempty"`
	RetryMS    int64   `json:"retry_ms,omitempty"`
	Draining   bool    `json:"draining,omitempty"`
	SuggestMax int     `json:"suggest_max,omitempty"`
}

// Trial is the JSON form of PackedTrial.
type Trial struct {
	ID          uint64    `json:"id"`
	Algo        int       `json:"algo"`
	Config      []float64 `json:"config,omitempty"`
	DeadlineMS  int64     `json:"deadline_ms,omitempty"`
	Speculative bool      `json:"spec,omitempty"`
	Pinned      bool      `json:"pinned,omitempty"`
}

// CompleteNReq is the JSON form of PackedCompleteReq.
type CompleteNReq struct {
	Epoch   int64    `json:"epoch"`
	Worker  uint64   `json:"worker,omitempty"`
	Results []Result `json:"results"`
}

// Result is the JSON form of PackedResult; Features was an optional echo
// of the lease's feature vector.
type Result struct {
	ID       uint64    `json:"id"`
	Value    float64   `json:"value"`
	Features []float64 `json:"features,omitempty"`
}

// HeartbeatReq (frame THeartbeat) extends the leases of the listed
// trials.
type HeartbeatReq struct {
	Epoch int64    `json:"epoch"`
	IDs   []uint64 `json:"ids"`
}

// HeartbeatResp (frame THeartbeatAck) lists which of the requested
// trials are still leased (deadlines now extended). A worker should
// abandon any trial missing from Alive.
type HeartbeatResp struct {
	Alive []uint64 `json:"alive,omitempty"`
}

// Obs is one degraded-mode observation: an (arm, value) pair measured
// by a worker's local fallback tuner while it was partitioned from the
// server. Failed observations carry the local tuner's penalty as Value,
// matching nominal.Observation.
type Obs struct {
	Arm    int     `json:"arm"`
	Value  float64 `json:"value"`
	Failed bool    `json:"failed,omitempty"`
}

// AbsorbReq (frame TAbsorb) folds a worker's locally-accumulated
// observations into the server's selector after a partition heals.
// (Worker, Seq) deduplicate retries: the worker picks a random nonzero
// Worker ID at startup and numbers its flushes, so a flush whose ack
// was lost can be resent without the observations being applied twice.
type AbsorbReq struct {
	Worker uint64 `json:"worker"`
	Seq    uint64 `json:"seq"`
	Obs    []Obs  `json:"obs"`
}

// AbsorbAck (frame TAbsorbAck) answers AbsorbReq. Duplicate means the
// sequence number was already applied and the batch was dropped — a
// success for the worker, exactly like PackedAck.Dropped.
type AbsorbAck struct {
	Applied   int  `json:"applied"`
	Duplicate bool `json:"duplicate,omitempty"`
}

// CalibrateReq (frame TCalibrate) reports a worker's reference-probe
// time: the worker measured HelloAck.RefAlgo at its initial
// configuration and sends the (median-filtered) wall time. The server
// keeps the latest reference per worker and derives a speed factor
// relative to the fastest fleet member, which then normalizes every
// cost that worker reports — so a 4×-slower machine's measurements
// compare against the fleet on equal footing instead of biasing the
// selector toward whatever the fast machines happened to run.
type CalibrateReq struct {
	Worker uint64  `json:"worker"`
	Ref    float64 `json:"ref"`
}

// CalibrateAck (frame TCalibrateAck) answers CalibrateReq with the
// factor now applied to this worker's reports (1 = fleet-fastest) and
// the fleet baseline reference the factor is relative to.
type CalibrateAck struct {
	Factor   float64 `json:"factor"`
	Baseline float64 `json:"baseline"`
}

// TBest, TStats and TTenants requests have no body.

// TenantStat is one tenant's line in a TenantsResp: identity, residency
// (a spilled tenant is checkpointed to disk, not live in memory), and
// the read-side summary of its engine. For a spilled tenant the summary
// is the state captured at spill time — listing tenants never forces a
// warm restart.
type TenantStat struct {
	Name       string  `json:"name"`
	Resident   bool    `json:"resident"`
	Epoch      int64   `json:"epoch,omitempty"`
	Iterations int     `json:"iterations"`
	InFlight   int     `json:"in_flight,omitempty"`
	Completed  uint64  `json:"completed,omitempty"`
	BestAlgo   int     `json:"best_algo"` // -1 before any completion
	BestName   string  `json:"best_name,omitempty"`
	BestValue  float64 `json:"best_value,omitempty"`
	Spills     uint64  `json:"spills,omitempty"`
	Restarts   uint64  `json:"restarts,omitempty"`
}

// TenantsResp (frame TTenantsAck) is the aggregate view over every
// registered tenant, resident or spilled, plus fleet totals. Per-tenant
// Best/Stats stay on the session's own tenant; this is the operator's
// one-call overview.
type TenantsResp struct {
	Tenants    []TenantStat `json:"tenants"`
	Resident   int          `json:"resident"`
	Iterations int          `json:"iterations"` // summed across tenants
	InFlight   int          `json:"in_flight"`  // summed across resident tenants
}

// BestResp (frame TBestAck) is the globally best observation so far.
type BestResp struct {
	Algo       int       `json:"algo"` // -1 before any completion
	Name       string    `json:"name,omitempty"`
	Config     []float64 `json:"config,omitempty"`
	Value      float64   `json:"value"`
	Iterations int       `json:"iterations"`
}

// StatsResp (frame TStatsAck) mirrors core.EngineStats plus the
// selection counts, the drift watchdog's counters (core.DriftStats)
// and the calibration state — one stats read covers the engine, the
// change-point machinery and the fleet normalization.
type StatsResp struct {
	Leased     uint64 `json:"leased"`
	Completed  uint64 `json:"completed"`
	Failed     uint64 `json:"failed"`
	Expired    uint64 `json:"expired"`
	Released   uint64 `json:"released,omitempty"`
	InFlight   int    `json:"in_flight"`
	Iterations int    `json:"iterations"`
	Counts     []int  `json:"counts,omitempty"`
	Degraded   bool   `json:"degraded,omitempty"`
	Absorbed   uint64 `json:"absorbed,omitempty"`

	// Drift watchdog counters (zero when no watchdog is configured).
	DriftEvents        uint64 `json:"drift_events,omitempty"`
	DriftDecays        uint64 `json:"drift_decays,omitempty"`
	DriftReforks       uint64 `json:"drift_reforks,omitempty"`
	DriftStale         uint64 `json:"drift_stale,omitempty"`
	DriftOutliers      uint64 `json:"drift_outliers,omitempty"`
	PendingProbes      int    `json:"pending_probes,omitempty"`
	ProbesScheduled    uint64 `json:"probes_scheduled,omitempty"`
	QuarantineReprobes int    `json:"quarantine_reprobes,omitempty"`

	// Calibrated counts workers with a registered reference probe.
	Calibrated int `json:"calibrated,omitempty"`

	// Rebalanced counts lease grants the server shrank because the
	// session sat at its fair share of in-flight capacity while peer
	// sessions starved (see PackedTrials.SuggestMax).
	Rebalanced uint64 `json:"rebalanced,omitempty"`

	// Contexts counts live per-context engines on a contextual server
	// (0 on a non-contextual one).
	Contexts int `json:"contexts,omitempty"`
}

// Error codes carried by ErrorResp.
const (
	CodeBadRequest     = 400 // malformed payload or wrong first frame
	CodeUnknownTenant  = 404 // Hello names a tenant the server doesn't run
	CodeConfigMismatch = 409 // Hello hash does not match the server's run
	CodeInternal       = 500
)

// ErrorResp (frame TError) reports a request-level failure. After a
// handshake failure the server closes the connection; after a
// bad request on an established connection it does too — a peer that
// cannot frame requests correctly cannot be trusted to stay in sync.
type ErrorResp struct {
	Code int    `json:"code"`
	Msg  string `json:"msg"`
}

// Payload implementations for the JSON family. Each is the shared
// helper pair; the concrete receiver only picks the struct shape.

func (m *Hello) AppendEncode(buf []byte) []byte    { return appendJSON(buf, m) }
func (m *Hello) DecodeFrom(buf []byte) error       { return decodeJSON(buf, m) }
func (m *HelloAck) AppendEncode(buf []byte) []byte { return appendJSON(buf, m) }
func (m *HelloAck) DecodeFrom(buf []byte) error    { return decodeJSON(buf, m) }

func (m *LeaseNResp) AppendEncode(buf []byte) []byte   { return appendJSON(buf, m) }
func (m *LeaseNResp) DecodeFrom(buf []byte) error      { return decodeJSON(buf, m) }
func (m *CompleteNReq) AppendEncode(buf []byte) []byte { return appendJSON(buf, m) }
func (m *CompleteNReq) DecodeFrom(buf []byte) error    { return decodeJSON(buf, m) }

func (m *HeartbeatReq) AppendEncode(buf []byte) []byte  { return appendJSON(buf, m) }
func (m *HeartbeatReq) DecodeFrom(buf []byte) error     { return decodeJSON(buf, m) }
func (m *HeartbeatResp) AppendEncode(buf []byte) []byte { return appendJSON(buf, m) }
func (m *HeartbeatResp) DecodeFrom(buf []byte) error    { return decodeJSON(buf, m) }

func (m *AbsorbReq) AppendEncode(buf []byte) []byte    { return appendJSON(buf, m) }
func (m *AbsorbReq) DecodeFrom(buf []byte) error       { return decodeJSON(buf, m) }
func (m *AbsorbAck) AppendEncode(buf []byte) []byte    { return appendJSON(buf, m) }
func (m *AbsorbAck) DecodeFrom(buf []byte) error       { return decodeJSON(buf, m) }
func (m *CalibrateReq) AppendEncode(buf []byte) []byte { return appendJSON(buf, m) }
func (m *CalibrateReq) DecodeFrom(buf []byte) error    { return decodeJSON(buf, m) }
func (m *CalibrateAck) AppendEncode(buf []byte) []byte { return appendJSON(buf, m) }
func (m *CalibrateAck) DecodeFrom(buf []byte) error    { return decodeJSON(buf, m) }

func (m *TenantsResp) AppendEncode(buf []byte) []byte { return appendJSON(buf, m) }
func (m *TenantsResp) DecodeFrom(buf []byte) error    { return decodeJSON(buf, m) }
func (m *BestResp) AppendEncode(buf []byte) []byte    { return appendJSON(buf, m) }
func (m *BestResp) DecodeFrom(buf []byte) error       { return decodeJSON(buf, m) }
func (m *StatsResp) AppendEncode(buf []byte) []byte   { return appendJSON(buf, m) }
func (m *StatsResp) DecodeFrom(buf []byte) error      { return decodeJSON(buf, m) }
func (m *ErrorResp) AppendEncode(buf []byte) []byte   { return appendJSON(buf, m) }
func (m *ErrorResp) DecodeFrom(buf []byte) error      { return decodeJSON(buf, m) }
