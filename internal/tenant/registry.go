package tenant

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/search"
	"repro/internal/wire"
)

// ErrUnknownTenant is returned by Acquire for a name never registered.
var ErrUnknownTenant = errors.New("tenant: unknown tenant")

// Config configures a Registry.
type Config struct {
	// Root is the persistence root; each tenant owns Root/<name>/ with
	// its spec.json and a ckpt/ checkpoint directory. Empty disables
	// persistence — engines are memory-only and MaxResident is ignored,
	// since spilling without a checkpoint would destroy tenant state.
	Root string
	// MaxResident caps how many tenant engines stay live at once; the
	// least-recently-used idle tenant beyond the cap is checkpointed and
	// released, to be lazily warm-restarted by its next request. Zero
	// means unlimited.
	MaxResident int
	// Roster resolves workload names; nil means BuiltinRoster.
	Roster RosterFunc
	// Factory is the per-algorithm search factory; nil means the core
	// default.
	Factory search.Factory
}

// Registry owns every tenant's engine lifecycle. All residency
// transitions happen under one mutex: materialization and spill are
// rare (a tenant switch, not a trial), so the simplicity of a single
// lock beats fine-grained locking that would have to order engine
// checkpoints against concurrent acquires anyway.
type Registry struct {
	cfg       Config
	epochBase int64

	mu       sync.Mutex
	ts       map[string]*Tenant
	tick     uint64 // LRU clock, bumped per acquire
	epochSeq int64
}

// Tenant is one registered tuning problem. The engine pointer is nil
// while the tenant is spilled; summary fields cache the last resident
// state so the aggregate view never forces a warm restart.
type Tenant struct {
	spec     Spec
	algos    []core.Algorithm
	names    []string
	hash     uint32 // wire roster hash (handshake compatibility)
	specHash uint32 // Spec.hash (persistence compatibility)
	epoch    int64  // session epoch, unique per tenant per process

	eng     Engine // nil when spilled
	lastUse uint64
	inUse   int    // active request refcount; an in-use engine never spills
	release func() // Acquire's release, built once so acquiring allocates nothing

	spills, restarts uint64
	// Summary cached at spill time (refreshed while resident).
	sumIter      int
	sumCompleted uint64
	sumBestAlgo  int
	sumBestName  string
	sumBestVal   float64
}

// Spec returns the tenant's registered spec.
func (t *Tenant) Spec() Spec { return t.spec }

// Epoch returns the tenant's session epoch for this server process.
// Epochs are unique across the registry's tenants, so a report carried
// from one tenant's lease can never pass another tenant's epoch check.
func (t *Tenant) Epoch() int64 { return t.epoch }

// Hash returns the wire config hash over the tenant's roster names.
func (t *Tenant) Hash() uint32 { return t.hash }

// Names returns the tenant's roster names (index = wire algorithm
// index).
func (t *Tenant) Names() []string { return append([]string(nil), t.names...) }

// Info is one tenant's row in the aggregate view.
type Info struct {
	Name       string
	Resident   bool
	Epoch      int64
	Iterations int
	InFlight   int
	Completed  uint64
	BestAlgo   int
	BestName   string
	BestValue  float64
	Spills     uint64
	Restarts   uint64
}

// NewRegistry builds a registry and, when cfg.Root exists, rediscovers
// every tenant that left a spec.json behind — a restarted server comes
// back knowing all its tenants, each resumable from its own journal.
// Register writes spec.json without an fsync, so a power cut soon after
// a registration can leave it empty: such a directory is skipped as a
// registration that never finished, and registering the tenant again
// rewrites the spec and resumes its ckpt/. A non-empty spec that does
// not decode still fails the whole registry.
func NewRegistry(cfg Config) (*Registry, error) {
	if cfg.MaxResident > 0 && cfg.Root == "" {
		return nil, errors.New("tenant: MaxResident needs a persistence Root (spilling without checkpoints would lose state)")
	}
	r := newRegistry(cfg)
	if cfg.Root != "" {
		entries, err := os.ReadDir(cfg.Root)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("tenant: read root %s: %w", cfg.Root, err)
		}
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			data, err := os.ReadFile(filepath.Join(cfg.Root, e.Name(), "spec.json"))
			if errors.Is(err, os.ErrNotExist) || (err == nil && len(data) == 0) {
				continue // not a tenant directory, or an unfinished registration
			}
			if err != nil {
				return nil, fmt.Errorf("tenant: read spec for %s: %w", e.Name(), err)
			}
			var spec Spec
			if err := json.Unmarshal(data, &spec); err != nil {
				return nil, fmt.Errorf("tenant: decode spec for %s: %w", e.Name(), err)
			}
			if spec.Name != e.Name() {
				return nil, fmt.Errorf("tenant: spec in %s names tenant %q", e.Name(), spec.Name)
			}
			if err := r.Register(spec); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// NewSingle returns a registry whose "default" tenant is eng, resident
// from the start. The registry has no Root, so it writes nothing and
// never spills: eng keeps whatever checkpoint directory it was built
// over. More tenants may still be registered, memory-only.
func NewSingle(eng Engine) *Registry {
	r := newRegistry(Config{})
	names := make([]string, eng.NumAlgorithms())
	for i := range names {
		names[i] = eng.AlgorithmName(i)
	}
	r.add(Spec{Name: DefaultName}, nil, names, 0).eng = eng
	return r
}

func newRegistry(cfg Config) *Registry {
	if cfg.Roster == nil {
		cfg.Roster = BuiltinRoster
	}
	return &Registry{
		cfg:       cfg,
		epochBase: time.Now().UnixNano(),
		ts:        make(map[string]*Tenant),
	}
}

// add records a new tenant with a fresh epoch (r.mu held, or r not yet
// shared).
func (r *Registry) add(spec Spec, algos []core.Algorithm, names []string, specHash uint32) *Tenant {
	t := &Tenant{
		spec:        spec,
		algos:       algos,
		names:       names,
		hash:        wire.ConfigHash(names),
		specHash:    specHash,
		sumBestAlgo: -1,
	}
	r.epochSeq++
	t.epoch = r.epochBase + r.epochSeq
	t.release = func() {
		r.mu.Lock()
		t.inUse--
		r.mu.Unlock()
	}
	r.ts[spec.Name] = t
	return t
}

// Register adds a tenant. Registering a name that exists (typically
// rediscovered from disk) is a no-op when the spec is semantically
// identical and an error when it differs — an old checkpoint must never
// be resumed under changed tuning semantics. The engine is not built
// here; the first Acquire materializes it.
func (r *Registry) Register(spec Spec) error {
	algos, err := spec.validate(r.cfg.Roster)
	if err != nil {
		return err
	}
	names := make([]string, len(algos))
	for i, a := range algos {
		names[i] = a.Name
	}
	specHash := spec.hash(names)

	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.ts[spec.Name]; ok {
		if old.specHash != specHash {
			return fmt.Errorf("tenant %s: spec changed (hash %08x, registered %08x); remove %s or restore the spec",
				spec.Name, specHash, old.specHash, r.dir(spec.Name))
		}
		return nil
	}
	if r.cfg.Root != "" {
		dir := r.dir(spec.Name)
		if err := os.MkdirAll(filepath.Join(dir, "ckpt"), 0o755); err != nil {
			return fmt.Errorf("tenant %s: %w", spec.Name, err)
		}
		data, err := json.MarshalIndent(spec, "", "  ")
		if err != nil {
			return fmt.Errorf("tenant %s: encode spec: %w", spec.Name, err)
		}
		if err := os.WriteFile(filepath.Join(dir, "spec.json"), append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("tenant %s: write spec: %w", spec.Name, err)
		}
	}
	r.add(spec, algos, names, specHash)
	return nil
}

// dir is the tenant's directory under the root.
func (r *Registry) dir(name string) string { return filepath.Join(r.cfg.Root, name) }

// ckptDir is the tenant's checkpoint directory ("" when not persistent).
func (r *Registry) ckptDir(name string) string {
	if r.cfg.Root == "" {
		return ""
	}
	return filepath.Join(r.cfg.Root, name, "ckpt")
}

// Has reports whether name is registered.
func (r *Registry) Has(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ts[name] != nil
}

// Names returns all registered tenant names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.ts))
	for n := range r.ts {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Tenant returns the named tenant's registration (nil if unknown). The
// returned value's identity fields (Spec, Epoch, Hash, Names) are
// immutable after Register; engine residency is the registry's business.
func (r *Registry) Tenant(name string) *Tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ts[name]
}

// Acquire returns the named tenant's live engine, warm-restarting it
// from checkpoint if it was spilled (or building it fresh on first
// use), and pins it resident until release is called. Every server
// request brackets its engine calls in an Acquire/release pair, so the
// LRU can never spill an engine out from under a request. Neither the
// call nor release allocates.
func (r *Registry) Acquire(name string) (Engine, *Tenant, func(), error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.ts[name]
	if t == nil {
		return nil, nil, nil, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	r.tick++
	t.lastUse = r.tick
	if t.eng == nil {
		if err := r.materialize(t); err != nil {
			return nil, nil, nil, err
		}
		r.evictOver(t)
	}
	t.inUse++
	return t.eng, t, t.release, nil
}

// materialize builds or resumes the tenant's engine (r.mu held).
func (r *Registry) materialize(t *Tenant) error {
	eng, resumed, err := t.spec.Build(t.algos, r.cfg.Factory, r.ckptDir(t.spec.Name))
	if err != nil {
		return fmt.Errorf("tenant %s: %w", t.spec.Name, err)
	}
	t.eng = eng
	if resumed {
		t.restarts++
	}
	return nil
}

// evictOver spills LRU idle tenants while more than MaxResident are
// live, never touching keep (the tenant just acquired) or any tenant
// with requests or trials in flight (r.mu held). Spilling checkpoints
// the engine first; a failed checkpoint keeps the engine resident — over
// the cap beats losing state.
func (r *Registry) evictOver(keep *Tenant) {
	if r.cfg.MaxResident <= 0 {
		return
	}
	for {
		resident := 0
		var victim *Tenant
		for _, t := range r.ts {
			if t.eng == nil {
				continue
			}
			resident++
			if t == keep || t.inUse > 0 || t.eng.Stats().InFlight > 0 {
				continue
			}
			if victim == nil || t.lastUse < victim.lastUse {
				victim = t
			}
		}
		if resident <= r.cfg.MaxResident || victim == nil {
			return
		}
		if err := victim.eng.Checkpoint(); err != nil {
			return
		}
		victim.refreshSummary()
		victim.eng = nil
		victim.spills++
	}
}

// refreshSummary caches the resident engine's read-side state (caller
// holds r.mu; t.eng non-nil).
func (t *Tenant) refreshSummary() {
	t.sumIter = t.eng.Iterations()
	t.sumCompleted = t.eng.Stats().Completed
	algo, _, val := t.eng.Best()
	t.sumBestAlgo = algo
	t.sumBestVal = 0
	t.sumBestName = ""
	if algo >= 0 {
		t.sumBestName = t.names[algo]
		t.sumBestVal = val
	}
}

// Snapshot returns every tenant's Info row, sorted by name, without
// materializing anything: spilled tenants report their spill-time
// summary.
func (r *Registry) Snapshot() []Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Info, 0, len(r.ts))
	for _, t := range r.ts {
		in := Info{
			Name:     t.spec.Name,
			Resident: t.eng != nil,
			Epoch:    t.epoch,
			Spills:   t.spills,
			Restarts: t.restarts,
		}
		if t.eng != nil {
			t.refreshSummary()
			in.InFlight = t.eng.Stats().InFlight
		}
		in.Iterations = t.sumIter
		in.Completed = t.sumCompleted
		in.BestAlgo = t.sumBestAlgo
		in.BestName = t.sumBestName
		in.BestValue = t.sumBestVal
		out = append(out, in)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Resident returns how many tenant engines are currently live.
func (r *Registry) Resident() int {
	n := 0
	r.EachResident(func(string, Engine) { n++ })
	return n
}

// EachResident calls fn with every resident tenant's name and engine, in
// name order — deterministic, so two drains of the same state touch disk
// identically. Spilled tenants are skipped, never materialized. Each
// engine is pinned as by Acquire until fn returns, so none spills
// meanwhile; fn runs without the registry lock held.
func (r *Registry) EachResident(fn func(name string, eng Engine)) {
	type resident struct {
		t   *Tenant
		eng Engine
	}
	r.mu.Lock()
	var rs []resident
	for _, t := range r.ts {
		if t.eng != nil {
			t.inUse++
			rs = append(rs, resident{t, t.eng})
		}
	}
	r.mu.Unlock()
	sort.Slice(rs, func(i, j int) bool { return rs[i].t.spec.Name < rs[j].t.spec.Name })
	for _, x := range rs {
		fn(x.t.spec.Name, x.eng)
		x.t.release()
	}
}

// ReclaimExpired sweeps every resident tenant's expired leases,
// returning the total reclaimed.
func (r *Registry) ReclaimExpired() int {
	n := 0
	r.EachResident(func(_ string, eng Engine) { n += eng.ReclaimExpired() })
	return n
}

// InFlight sums in-flight leases across resident tenants.
func (r *Registry) InFlight() int {
	n := 0
	r.EachResident(func(_ string, eng Engine) { n += eng.Stats().InFlight })
	return n
}

// CheckpointAll checkpoints every resident tenant in name order and
// returns the names in the order they were checkpointed. All tenants are
// attempted even after a failure; the first error is returned.
func (r *Registry) CheckpointAll() ([]string, error) {
	var names []string
	var firstErr error
	r.EachResident(func(n string, eng Engine) {
		names = append(names, n)
		if err := eng.Checkpoint(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("tenant %s: %w", n, err)
		}
	})
	return names, firstErr
}
