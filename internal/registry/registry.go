// Package registry hosts many independent named streams inside one
// serving process — the tenant-density layer the paper's smallness
// results make possible: per-stream coreset state is polylogarithmic in
// the stream, so a single daemon can hold thousands of tenants, and the
// ones it cannot hold in RAM cost nothing while cold.
//
// Each stream owns one clustering backend (in the shipped daemon any
// streamkm backend variant — concurrent, decayed or windowed, all with
// sharded ingest lanes; backends reporting a lane count through the
// Sharder interface, or centers-cache counters through CacheStater,
// surface them in Info and /stats). The registry
// bounds how many are resident at
// once: past MaxResident — or past an idle TTL — the least-recently-used
// stream is hibernated, i.e. checkpointed to its per-stream snapshot
// file (the same versioned envelope internal/persist writes for daemon
// checkpoints) and its backend released. The next access restores it
// lazily, with every ingested point's weight intact, so eviction is a
// pure RAM/latency trade, never data loss.
//
// Concurrency model: a registry-level mutex guards only the id → stream
// map and residency accounting; each stream has its own RWMutex held in
// read mode for the duration of every ingest/query and in write mode
// across the hibernate and restore transitions. A stream is therefore
// never hibernated mid-request, and at most one goroutine restores it.
// To keep the pair deadlock-free, a goroutine holds at most one stream
// lock at a time: capacity enforcement runs after the triggering request
// releases its stream, and picks victims from lock-free last-access
// timestamps.
package registry

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streamkm/internal/metrics"
	"streamkm/internal/persist"
	"streamkm/internal/trace"
	"streamkm/internal/wire"
)

// Backend is the per-stream clustering surface the registry manages. It
// is the same shape as the HTTP layer's Clusterer interface, so any
// servable backend slots in. Implementations must be safe for concurrent
// use.
type Backend interface {
	AddBatch(pts [][]float64)
	Centers() [][]float64
	Count() int64
	PointsStored() int
	Name() string
}

// Snapshotter is the additional capability hibernation needs: backends
// that cannot serialize themselves can be hosted but never evicted.
type Snapshotter interface {
	Snapshot(w io.Writer) error
}

// StreamConfig is the per-stream clustering configuration — the wire
// form of a backend spec: which backend variant and algorithm back the
// stream, how many centers queries answer, the expected point dimension
// (0 = adopt from the first ingested point), and the variant-specific
// knobs (decay half-life, sliding-window length). The registry treats
// the spec as opaque beyond basic bounds: the New/Restore factories own
// variant semantics.
type StreamConfig struct {
	Backend  string  `json:"backend,omitempty"`
	Algo     string  `json:"algo"`
	K        int     `json:"k"`
	Dim      int     `json:"dim"`
	HalfLife float64 `json:"half_life,omitempty"`
	// HalfLifeSeconds is the wall-clock decay half-life in seconds,
	// mutually exclusive with the arrival-count HalfLife; only decayed
	// backends accept either.
	HalfLifeSeconds float64 `json:"half_life_seconds,omitempty"`
	WindowN         int64   `json:"window_n,omitempty"`
	// Shards is the stream's ingest-lane parallelism; 0 inherits the
	// serving layer's default. On restore the snapshot's recorded lane
	// layout always wins over this knob.
	Shards int `json:"shards,omitempty"`

	// Per-tenant quotas, all 0 = unlimited. PointsPerSec and BytesPerSec
	// are sustained ingest rates enforced by a token bucket at the
	// registry boundary (burst of roughly one second of rate);
	// MaxResidentBytes caps the estimated resident footprint of the
	// stream's stored points. Exceeding any of them refuses the request
	// with a ThrottleError (HTTP 429 + Retry-After), never partial
	// application.
	PointsPerSec     float64 `json:"points_per_sec,omitempty"`
	BytesPerSec      float64 `json:"bytes_per_sec,omitempty"`
	MaxResidentBytes int64   `json:"max_resident_bytes,omitempty"`
}

// Bounds beyond which a stream configuration is rejected as absurd
// rather than handed to a backend constructor: a dim of a million would
// make every ingested point allocate megabytes before any dimension
// check fires.
const (
	MaxK      = 1 << 20
	MaxDim    = 1 << 20
	MaxShards = 1 << 10
)

// Validate rejects stream configurations no backend constructor should
// ever see: non-positive k, negative or absurd dimensions, negative
// variant knobs. Variant-specific requirements (e.g. a decayed backend
// needing a half-life) stay with the factory — its error also surfaces
// as a client error.
func (c StreamConfig) Validate() error {
	if c.K < 1 {
		return fmt.Errorf("%w: k must be >= 1, got %d", ErrInvalidConfig, c.K)
	}
	if c.K > MaxK {
		return fmt.Errorf("%w: k %d exceeds the maximum %d", ErrInvalidConfig, c.K, MaxK)
	}
	if c.Dim < 0 {
		return fmt.Errorf("%w: dim must be >= 0, got %d", ErrInvalidConfig, c.Dim)
	}
	if c.Dim > MaxDim {
		return fmt.Errorf("%w: dim %d exceeds the maximum %d", ErrInvalidConfig, c.Dim, MaxDim)
	}
	if c.HalfLife < 0 {
		return fmt.Errorf("%w: half_life must be >= 0, got %v", ErrInvalidConfig, c.HalfLife)
	}
	if c.HalfLifeSeconds < 0 {
		return fmt.Errorf("%w: half_life_seconds must be >= 0, got %v", ErrInvalidConfig, c.HalfLifeSeconds)
	}
	if c.HalfLife > 0 && c.HalfLifeSeconds > 0 {
		return fmt.Errorf("%w: half_life (%v) and half_life_seconds (%v) are mutually exclusive", ErrInvalidConfig, c.HalfLife, c.HalfLifeSeconds)
	}
	if c.WindowN < 0 {
		return fmt.Errorf("%w: window_n must be >= 0, got %d", ErrInvalidConfig, c.WindowN)
	}
	if c.Shards < 0 {
		return fmt.Errorf("%w: shards must be >= 0, got %d", ErrInvalidConfig, c.Shards)
	}
	if c.Shards > MaxShards {
		return fmt.Errorf("%w: shards %d exceeds the maximum %d", ErrInvalidConfig, c.Shards, MaxShards)
	}
	if c.PointsPerSec < 0 {
		return fmt.Errorf("%w: points_per_sec must be >= 0, got %v", ErrInvalidConfig, c.PointsPerSec)
	}
	if c.BytesPerSec < 0 {
		return fmt.Errorf("%w: bytes_per_sec must be >= 0, got %v", ErrInvalidConfig, c.BytesPerSec)
	}
	if c.MaxResidentBytes < 0 {
		return fmt.Errorf("%w: max_resident_bytes must be >= 0, got %d", ErrInvalidConfig, c.MaxResidentBytes)
	}
	return nil
}

// Config configures a Registry.
type Config struct {
	// MaxResident bounds how many streams hold a live backend at once;
	// exceeding it hibernates the least-recently-used stream. 0 means
	// unbounded. Requires DataDir.
	MaxResident int
	// TTL hibernates streams idle for longer than this on each Sweep.
	// 0 disables idle hibernation. Requires DataDir.
	TTL time.Duration
	// DataDir is where per-stream snapshots live (<id>.snap). Existing
	// snapshots are registered — hibernated, costing no RAM — when the
	// registry is created. Empty disables persistence (and therefore
	// hibernation) except for streams with an explicit Files entry.
	DataDir string
	// Files maps stream ids to explicit snapshot paths, overriding the
	// DataDir naming scheme. Used by the daemon to keep the legacy
	// single-file -checkpoint flag meaning "the default stream's file".
	Files map[string]string
	// Default is the configuration for streams created lazily on first
	// ingest.
	Default StreamConfig
	// New builds a fresh backend for a stream. Required.
	New func(id string, cfg StreamConfig) (Backend, error)
	// Restore rebuilds a backend from a snapshot previously written by
	// its Snapshotter, returning the configuration recorded in the
	// snapshot. want carries the configuration the stream was explicitly
	// created with (zero-valued for lazily or boot-registered streams);
	// implementations must fail on a mismatch rather than resume a
	// differently-specced snapshot under a tenant's name. Required.
	Restore func(id string, want StreamConfig, r io.Reader) (Backend, StreamConfig, error)
	// Peek cheaply reads a snapshot's configuration and point count
	// without building a backend; it lets the boot scan register
	// hibernated streams with accurate metadata while keeping them cold.
	// Optional: when nil, metadata of never-accessed streams reads as
	// zero until first restore.
	Peek func(r io.Reader) (StreamConfig, int64, error)

	// ThrashRestores and ThrashWindow configure restore-thrash admission
	// control: when an access to a cold stream would trigger its
	// ThrashRestores'th restore within ThrashWindow, the access is shed
	// with a ThrottleError (HTTP 429 + Retry-After) instead of restoring
	// — a stream churning through hibernation is cheaper refused for a
	// moment than allowed to collapse the daemon's p95 with restore
	// stalls. Either value <= 0 disables shedding.
	ThrashRestores int
	ThrashWindow   time.Duration

	// now is a test hook; nil means time.Now.
	now func() time.Time
}

// Registry is a concurrency-safe, capacity-bounded collection of named
// streams. Create with New.
type Registry struct {
	cfg Config

	mu       sync.Mutex
	streams  map[string]*Stream
	resident map[string]*Stream

	stats      metrics.RegistryStats
	checkpoint metrics.CheckpointStats

	buffers wire.BufferPool

	accesses atomic.Int64 // last access sequence number issued by touch
}

// Registry errors distinguished by the HTTP layer.
var (
	ErrNotFound      = errors.New("registry: no such stream")
	ErrExists        = errors.New("registry: stream already exists")
	ErrInvalidID     = errors.New("registry: invalid stream id")
	ErrInvalidConfig = errors.New("registry: invalid stream config")
	ErrDetached      = errors.New("registry: stream detached for migration")
	ErrThrottled     = errors.New("registry: request throttled")
	// ErrNoSnapshotPath reports a stream with nowhere to persist: the
	// registry runs without a data directory and the stream has no
	// explicit file.
	ErrNoSnapshotPath = errors.New("registry: stream has no snapshot path")
)

// DetachedError reports a request against a stream frozen for migration
// to another daemon. Owner, when non-empty, is the forwarding hint the
// detacher supplied (where the tenant is moving); the HTTP layer
// surfaces it as an X-Streamkm-Owner header on the 409 so a retrying
// client can follow the move. errors.Is(err, ErrDetached) matches.
type DetachedError struct {
	ID    string
	Owner string
}

func (e *DetachedError) Error() string {
	if e.Owner == "" {
		return fmt.Sprintf("registry: stream %q detached for migration", e.ID)
	}
	return fmt.Sprintf("registry: stream %q detached for migration to %s", e.ID, e.Owner)
}

// Unwrap lets errors.Is(err, ErrDetached) match.
func (e *DetachedError) Unwrap() error { return ErrDetached }

var idRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// ValidateID reports whether id is acceptable as a stream name: 1-64
// characters, starting with a letter or digit, then letters, digits,
// dot, underscore or dash. The first-character rule keeps ids safe as
// file names (no dotfiles, no traversal, no separators).
func ValidateID(id string) error {
	if !idRE.MatchString(id) {
		return fmt.Errorf("%w %q (want [A-Za-z0-9][A-Za-z0-9._-]{0,63})", ErrInvalidID, id)
	}
	return nil
}

// New builds a registry and registers — without restoring — every
// snapshot already present in cfg.DataDir and cfg.Files, so a restarted
// daemon sees all its tenants immediately while they stay cold.
func New(cfg Config) (*Registry, error) {
	if cfg.New == nil || cfg.Restore == nil {
		return nil, errors.New("registry: Config.New and Config.Restore are required")
	}
	if (cfg.MaxResident > 0 || cfg.TTL > 0) && cfg.DataDir == "" {
		return nil, errors.New("registry: MaxResident/TTL eviction requires DataDir (evicting without persistence would lose data)")
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	for id := range cfg.Files {
		if err := ValidateID(id); err != nil {
			return nil, err
		}
	}
	r := &Registry{
		cfg:      cfg,
		streams:  make(map[string]*Stream),
		resident: make(map[string]*Stream),
	}
	if cfg.DataDir != "" {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("registry: data dir: %w", err)
		}
	}
	if err := r.bootScan(); err != nil {
		return nil, err
	}
	return r, nil
}

// Buffers returns the registry-wide ingest buffer pool: every stream's
// binary-ingest request recycles its body and point-header buffers here,
// so a daemon hosting thousands of tenants shares one set of warm
// buffers instead of allocating per stream.
func (r *Registry) Buffers() *wire.BufferPool { return &r.buffers }

// bootScan registers hibernated entries for every snapshot file found in
// Files and DataDir. O(#files) with Peek; no backend is built.
func (r *Registry) bootScan() error {
	seen := make(map[string]bool) // cleaned paths claimed by Files
	for id, path := range r.cfg.Files {
		seen[filepath.Clean(path)] = true
		if _, err := os.Stat(path); err != nil {
			if os.IsNotExist(err) {
				continue // no state yet; the stream materializes on demand
			}
			return fmt.Errorf("registry: %s: %w", path, err)
		}
		r.registerHibernated(id, path)
	}
	if r.cfg.DataDir == "" {
		return nil
	}
	matches, err := filepath.Glob(filepath.Join(r.cfg.DataDir, "*.snap"))
	if err != nil {
		return fmt.Errorf("registry: scan %s: %w", r.cfg.DataDir, err)
	}
	sort.Strings(matches)
	for _, path := range matches {
		if seen[filepath.Clean(path)] {
			continue
		}
		id := strings.TrimSuffix(filepath.Base(path), ".snap")
		if ValidateID(id) != nil {
			continue // not one of ours; leave foreign files alone
		}
		if _, ok := r.streams[id]; ok {
			continue
		}
		r.registerHibernated(id, path)
	}
	return nil
}

// registerHibernated adds a cold entry for an on-disk snapshot, using
// Peek (when available) to fill metadata. A snapshot Peek cannot read is
// registered anyway, with zero metadata: one damaged tenant file must
// not keep the daemon from serving every other tenant, and the damage
// still surfaces — as a restore error on that stream's next access
// rather than a boot failure.
func (r *Registry) registerHibernated(id, path string) {
	e := &Stream{id: id, path: path, cfg: r.cfg.Default}
	if r.cfg.Peek != nil {
		if f, err := os.Open(path); err == nil {
			cfg, count, err := r.cfg.Peek(f)
			f.Close()
			if err == nil {
				e.cfg = cfg
				e.count = count
				e.lastCkptCount = count
				if cfg.Dim > 0 {
					e.dim.Store(int64(cfg.Dim))
				}
			}
		}
	}
	r.touch(e)
	r.streams[id] = e
	r.stats.RecordCreate()
}

// pathFor returns the snapshot path for id, "" when the stream has no
// persistence.
func (r *Registry) pathFor(id string) string {
	if p, ok := r.cfg.Files[id]; ok {
		return p
	}
	if r.cfg.DataDir != "" {
		return filepath.Join(r.cfg.DataDir, id+".snap")
	}
	return ""
}

// lookup finds the entry for id, registering a fresh one when create is
// set.
func (r *Registry) lookup(id string, create bool) (*Stream, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.streams[id]; ok {
		return e, nil
	}
	if !create {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if err := ValidateID(id); err != nil {
		return nil, err
	}
	// Lazy creation adopts the registry default; vet it exactly like an
	// explicit PUT body so a misconfigured default surfaces as a client
	// error on first ingest, not a backend-constructor failure.
	if err := r.cfg.Default.Validate(); err != nil {
		return nil, err
	}
	e := &Stream{id: id, path: r.pathFor(id), cfg: r.cfg.Default}
	if e.cfg.Dim > 0 {
		e.dim.Store(int64(e.cfg.Dim))
	}
	r.touch(e)
	r.streams[id] = e
	r.stats.RecordCreate()
	return e, nil
}

// With runs fn against the stream's backend, materializing the stream
// first if it is cold: restored from its snapshot file when one exists,
// created fresh (with the registry's default configuration) when create
// is set, ErrNotFound otherwise. The backend cannot be hibernated or
// deleted while fn runs. After fn returns, the resident-capacity bound
// is enforced, which may hibernate some other least-recently-used
// stream.
func (r *Registry) With(id string, create bool, fn func(s *Stream, b Backend) error) error {
	return r.WithContext(context.Background(), id, create, fn)
}

// WithContext is With joining the request's trace: when ctx carries a
// span (internal/trace), time spent acquiring the stream's lock is
// recorded as its lock-wait stage and a cold restore from the snapshot
// file as its restore stage — the two costs a caller cannot see from
// the outside.
func (r *Registry) WithContext(ctx context.Context, id string, create bool, fn func(s *Stream, b Backend) error) error {
	sp := trace.FromContext(ctx)
	for {
		e, err := r.lookup(id, create)
		if err != nil {
			return err
		}
		r.touch(e)

		// Fast path: already resident, shared lock only.
		t0 := r.cfg.now()
		e.mu.RLock()
		sp.RecordStage("lock-wait", r.cfg.now().Sub(t0))
		if e.deleted {
			e.mu.RUnlock()
			continue // entry was deleted under us; re-resolve the id
		}
		if e.detached {
			err := &DetachedError{ID: e.id, Owner: e.newOwner}
			e.mu.RUnlock()
			return err
		}
		if b := e.backend; b != nil {
			err := fn(e, b)
			e.mu.RUnlock()
			r.touch(e)
			return err
		}
		e.mu.RUnlock()

		// Slow path: materialize under the exclusive lock.
		t0 = r.cfg.now()
		e.mu.Lock()
		sp.RecordStage("lock-wait", r.cfg.now().Sub(t0))
		if e.deleted {
			e.mu.Unlock()
			continue
		}
		if e.detached {
			err := &DetachedError{ID: e.id, Owner: e.newOwner}
			e.mu.Unlock()
			return err
		}
		b := e.backend
		if b == nil {
			if err = r.admitRestore(e); err != nil {
				e.mu.Unlock()
				return err
			}
			if b, err = r.materialize(e, sp); err != nil {
				e.mu.Unlock()
				return err
			}
		}
		err = fn(e, b)
		e.mu.Unlock()
		r.touch(e)
		r.enforceCap()
		return err
	}
}

// materialize gives e a live backend; the caller holds e.mu. A snapshot
// file on disk wins over a fresh build, so a lazily re-accessed
// hibernated stream resumes rather than restarts. An already-live
// backend always wins over both: it may hold acknowledged points newer
// than any checkpoint (e.g. a lazy ingest racing an explicit Create),
// so it is never rebuilt over.
func (r *Registry) materialize(e *Stream, sp *trace.Span) (Backend, error) {
	if e.backend != nil {
		return e.backend, nil
	}
	var b Backend
	if e.path != "" {
		f, err := os.Open(e.path)
		switch {
		case err == nil:
			// Streams created explicitly (PUT) pass their declared spec down
			// so the restore can refuse a mismatched file; lazily or
			// boot-registered streams adopt whatever the snapshot holds.
			var want StreamConfig
			if e.explicit {
				want = e.cfg
			}
			var cfg StreamConfig
			endRestore := sp.StartStage("restore")
			b, cfg, err = r.cfg.Restore(e.id, want, f)
			endRestore()
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("registry: restore %s: %w", e.path, err)
			}
			e.cfg = cfg
			if cfg.Dim > 0 {
				e.dim.Store(int64(cfg.Dim))
			}
			e.lastCkptCount = b.Count() // the file already holds this state
			r.stats.RecordRestore()
			e.recordRestore(r.cfg.now(), r.cfg.ThrashRestores)
		case os.IsNotExist(err):
		default:
			return nil, fmt.Errorf("registry: %s: %w", e.path, err)
		}
	}
	if b == nil {
		var err error
		b, err = r.cfg.New(e.id, e.cfg)
		if err != nil {
			return nil, fmt.Errorf("registry: create %q: %w", e.id, err)
		}
		e.lastCkptCount = -1 // never checkpointed
	}
	e.backend = b
	r.mu.Lock()
	r.resident[e.id] = e
	r.mu.Unlock()
	return b, nil
}

// touch records an access to e: its clock reading, which TTL sweeps
// compare against wall time, and a registry-wide sequence number, which
// orders LRU eviction. Clock readings can tie (a coarse or fake clock);
// sequence numbers never do, so the stream whose access triggered a cap
// check is always the most recently used one.
func (r *Registry) touch(e *Stream) {
	e.lastAccess.Store(r.cfg.now().UnixNano())
	e.accessSeq.Store(r.accesses.Add(1))
}

// enforceCap hibernates least-recently-used resident streams until the
// resident count is back under MaxResident. Called with no stream lock
// held. Victims that fail to hibernate (or turn out to be busy growing)
// are skipped this round and retried on the next access.
func (r *Registry) enforceCap() {
	max := r.cfg.MaxResident
	if max <= 0 {
		return
	}
	for {
		r.mu.Lock()
		over := len(r.resident) - max
		if over <= 0 {
			r.mu.Unlock()
			return
		}
		victims := make([]*Stream, 0, len(r.resident))
		for _, e := range r.resident {
			victims = append(victims, e)
		}
		r.mu.Unlock()
		sort.Slice(victims, func(i, j int) bool {
			return victims[i].accessSeq.Load() < victims[j].accessSeq.Load()
		})

		evicted := 0
		for _, v := range victims {
			if evicted >= over {
				break
			}
			if err := r.hibernate(v); err == nil {
				evicted++
			}
		}
		if evicted == 0 {
			return // nothing evictable; give up rather than spin
		}
	}
}

// hibernate checkpoints e to its snapshot file and releases its backend.
// Holding no other locks, it takes e.mu exclusively, so it waits out any
// in-flight requests and can never race an ingest.
func (r *Registry) hibernate(e *Stream) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return r.hibernateLocked(e)
}

// hibernateLocked is hibernate's body; the caller holds e.mu exclusively.
func (r *Registry) hibernateLocked(e *Stream) error {
	b := e.backend
	if b == nil || e.deleted {
		return nil // already cold (or gone); not a failure
	}
	sn, ok := b.(Snapshotter)
	if !ok {
		r.stats.RecordEvictFailure()
		return fmt.Errorf("registry: backend %s cannot snapshot; stream %q stays resident", b.Name(), e.id)
	}
	if e.path == "" {
		r.stats.RecordEvictFailure()
		return fmt.Errorf("registry: stream %q has no snapshot path; stays resident", e.id)
	}
	n, err := persist.WriteFileAtomic(e.path, sn.Snapshot)
	if err != nil {
		r.stats.RecordEvictFailure()
		r.checkpoint.RecordFailure()
		return fmt.Errorf("registry: hibernate %q: %w", e.id, err)
	}
	r.checkpoint.RecordSuccess(n, r.cfg.now())
	e.count = b.Count()
	e.stored = b.PointsStored()
	e.lastCkptCount = e.count
	e.backend = nil
	// While the stream is cold, listings serve e.cfg — which so far holds
	// the *requested* configuration, not necessarily the spec the backend
	// actually ran with (a lazily created stream under a spec-less
	// default has no backend recorded at all; a windowed stream carries a
	// phantom inherited algo). Peek the snapshot just written, exactly as
	// the boot scan does, so a hibernated stream's listing always shows
	// the authoritative backend spec.
	if r.cfg.Peek != nil {
		if f, err := os.Open(e.path); err == nil {
			if cfg, _, err := r.cfg.Peek(f); err == nil {
				e.cfg = cfg
			}
			f.Close()
		}
	}
	r.mu.Lock()
	delete(r.resident, e.id)
	r.mu.Unlock()
	r.stats.RecordEviction()
	return nil
}

// Sweep hibernates every resident stream idle for longer than the
// configured TTL, returning how many went cold. The daemon calls it on
// its checkpoint ticker. No-op when TTL is 0.
//
// Durability is batched: each hibernation fsyncs its own file contents
// (via WriteFileAtomic) but the directory entries from the atomic
// renames are flushed with one fsync per distinct snapshot directory
// after the whole batch — hibernating hundreds of idle streams costs
// one directory sync (per directory actually written, covering Files
// overrides outside DataDir), not one per stream. Sweep latency is
// recorded in RegistryStats and surfaces in /stats.
func (r *Registry) Sweep() int {
	if r.cfg.TTL <= 0 {
		return 0
	}
	start := r.cfg.now()
	cutoff := start.Add(-r.cfg.TTL).UnixNano()
	r.mu.Lock()
	victims := make([]*Stream, 0, len(r.resident))
	for _, e := range r.resident {
		if e.lastAccess.Load() < cutoff {
			victims = append(victims, e)
		}
	}
	r.mu.Unlock()
	n := 0
	dirs := make(map[string]bool)
	for _, v := range victims {
		// Recheck idleness under no lock-order constraints; a request may
		// have landed since the scan.
		if v.lastAccess.Load() >= cutoff {
			continue
		}
		if err := r.hibernate(v); err == nil {
			n++
			dirs[filepath.Dir(v.path)] = true
		}
	}
	for dir := range dirs {
		// Best-effort: the snapshot contents are already fsynced, only
		// the rename's directory entry rides on this, and the next
		// checkpoint retries it.
		persist.SyncDir(dir)
	}
	r.stats.RecordSweep(n, r.cfg.now().Sub(start))
	return n
}

// fillDefaults completes a partial stream configuration from the
// registry default: PUT bodies may specify only the fields they care
// about.
func (r *Registry) fillDefaults(cfg StreamConfig) StreamConfig {
	if cfg.Backend == "" {
		cfg.Backend = r.cfg.Default.Backend
	}
	if cfg.Algo == "" {
		cfg.Algo = r.cfg.Default.Algo
	}
	if cfg.K == 0 {
		cfg.K = r.cfg.Default.K
	}
	if cfg.Dim == 0 {
		cfg.Dim = r.cfg.Default.Dim
	}
	// Variant knobs only inherit when the variant itself matches the
	// default's: a windowed tenant under a decayed-default daemon must
	// not silently pick up the daemon's half-life.
	if cfg.Backend == r.cfg.Default.Backend {
		// The two half-life forms are one knob: a request naming either
		// form has chosen its clock and inherits neither default.
		if cfg.HalfLife == 0 && cfg.HalfLifeSeconds == 0 {
			cfg.HalfLife = r.cfg.Default.HalfLife
			cfg.HalfLifeSeconds = r.cfg.Default.HalfLifeSeconds
		}
		if cfg.WindowN == 0 {
			cfg.WindowN = r.cfg.Default.WindowN
		}
	}
	// Quotas inherit unconditionally: a daemon-wide default quota is the
	// whole point of the knob, and a tenant wanting a different limit
	// states it explicitly.
	if cfg.PointsPerSec == 0 {
		cfg.PointsPerSec = r.cfg.Default.PointsPerSec
	}
	if cfg.BytesPerSec == 0 {
		cfg.BytesPerSec = r.cfg.Default.BytesPerSec
	}
	if cfg.MaxResidentBytes == 0 {
		cfg.MaxResidentBytes = r.cfg.Default.MaxResidentBytes
	}
	return cfg
}

// Create registers a stream with an explicit configuration (zero-valued
// fields fall back to the registry default) and materializes it eagerly,
// so configuration errors surface here rather than on first ingest.
// ErrExists if the id is taken.
func (r *Registry) Create(id string, cfg StreamConfig) error {
	if err := ValidateID(id); err != nil {
		return err
	}
	cfg = r.fillDefaults(cfg)
	if err := cfg.Validate(); err != nil {
		return err
	}
	for {
		r.mu.Lock()
		if _, ok := r.streams[id]; ok {
			r.mu.Unlock()
			return fmt.Errorf("%w: %q", ErrExists, id)
		}
		e := &Stream{id: id, path: r.pathFor(id), cfg: cfg, explicit: true}
		if cfg.Dim > 0 {
			e.dim.Store(int64(cfg.Dim))
		}
		r.touch(e)
		r.streams[id] = e
		r.mu.Unlock()

		e.mu.Lock()
		if e.deleted {
			// A concurrent Delete removed our entry before we could
			// materialize it; materializing now would resurrect a stream
			// the delete already acknowledged. Start over.
			e.mu.Unlock()
			continue
		}
		_, err := r.materialize(e, nil)
		if err != nil {
			// Mark the entry dead under the same lock hold, so a waiter
			// that grabbed it from the map before we unmap it re-resolves
			// the id instead of materializing our rejected configuration.
			e.deleted = true
		}
		e.mu.Unlock()
		if err != nil {
			r.mu.Lock()
			if r.streams[id] == e {
				delete(r.streams, id)
			}
			r.mu.Unlock()
			return err
		}
		r.stats.RecordCreate()
		r.enforceCap()
		return nil
	}
}

// Delete removes a stream and its on-disk snapshot. In-flight requests
// against it finish first; late requests re-resolve the id and get
// ErrNotFound (or a fresh stream, for lazy ingest).
func (r *Registry) Delete(id string) error {
	r.mu.Lock()
	e, ok := r.streams[id]
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	e.mu.Lock()
	if e.deleted {
		e.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	// Unlink the snapshot before unmapping the id and while holding e.mu:
	// racing requests still resolve to this entry and block here, so none
	// can register a fresh entry that would restore the dying stream's
	// state from the file. An unlink failure aborts with the stream fully
	// intact — the delete can simply be retried.
	if e.path != "" {
		if err := os.Remove(e.path); err != nil && !os.IsNotExist(err) {
			e.mu.Unlock()
			return fmt.Errorf("registry: delete %q: %w", id, err)
		}
	}
	e.deleted = true
	wasResident := e.backend != nil
	e.backend = nil
	e.mu.Unlock()

	r.mu.Lock()
	if r.streams[id] == e {
		delete(r.streams, id)
	}
	if wasResident {
		delete(r.resident, id)
	}
	r.mu.Unlock()
	r.stats.RecordDelete()
	return nil
}

// Detach freezes a stream for migration off this daemon: it is
// hibernated to its snapshot file (waiting out in-flight requests under
// the stream's exclusive lock, so no acknowledged point can land after
// the snapshot that travels) and every later request is refused with a
// DetachedError carrying the newOwner forwarding hint, until Reattach
// (aborted handoff) or Delete (completed handoff). Idempotent: detaching
// a detached stream just updates the hint. Returns the authoritative
// snapshot path.
func (r *Registry) Detach(id, newOwner string) (string, error) {
	r.mu.Lock()
	e, ok := r.streams[id]
	r.mu.Unlock()
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.deleted {
		return "", fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if e.detached {
		e.newOwner = newOwner
		// Detaching a standby copy for migration promotes its file to the
		// authoritative copy of the move; replication must no longer
		// overwrite it.
		e.standby = false
		return e.path, nil
	}
	if e.path == "" {
		return "", fmt.Errorf("%w: %q; cannot detach", ErrNoSnapshotPath, id)
	}
	if e.backend == nil {
		if _, err := os.Stat(e.path); err != nil {
			if !os.IsNotExist(err) {
				return "", fmt.Errorf("registry: detach %q: %w", id, err)
			}
			// Registered but never materialized and never checkpointed:
			// build the (empty or default) backend so the hibernation below
			// leaves a valid snapshot for the new owner to restore.
			if _, err := r.materialize(e, nil); err != nil {
				return "", err
			}
		}
	}
	if err := r.hibernateLocked(e); err != nil {
		return "", err
	}
	e.detached = true
	e.newOwner = newOwner
	return e.path, nil
}

// Reattach lifts a Detach — the abort path of a failed migration, and
// the promotion path for a standby copy (the failover primitive: a
// standby reattached starts serving the replicated state). The stream
// stays hibernated and serves again, restored lazily on its next access
// from the snapshot the detach (or the last replication ship) wrote;
// nothing was lost in the round trip because every request since the
// detach was refused, not half-applied.
func (r *Registry) Reattach(id string) error {
	r.mu.Lock()
	e, ok := r.streams[id]
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.deleted {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	e.detached = false
	e.standby = false
	e.newOwner = ""
	return nil
}

// Install registers a stream from a serialized snapshot envelope — the
// receiving half of a tenant migration: the bytes are written to the
// stream's snapshot file and restored immediately, so a malformed or
// truncated envelope is refused here, with nothing registered and no
// file left behind, rather than surfacing on the tenant's next access.
// ErrExists if the id is taken (an install never overwrites a live
// tenant) or if an unregistered snapshot file is already on disk.
func (r *Registry) Install(id string, src io.Reader) error {
	if err := ValidateID(id); err != nil {
		return err
	}
	path := r.pathFor(id)
	if path == "" {
		return errors.New("registry: snapshot install requires persistence (DataDir or a Files entry)")
	}
	raw, err := io.ReadAll(src)
	if err != nil {
		return fmt.Errorf("registry: install %q: %w", id, err)
	}
	r.mu.Lock()
	if _, ok := r.streams[id]; ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrExists, id)
	}
	e := &Stream{id: id, path: path, cfg: r.cfg.Default}
	r.touch(e)
	r.streams[id] = e
	r.mu.Unlock()

	e.mu.Lock()
	err = func() error {
		if e.deleted {
			// A concurrent Delete removed our entry before the state
			// landed; installing now would resurrect an acknowledged
			// delete.
			return fmt.Errorf("%w: %q", ErrNotFound, id)
		}
		if _, err := os.Stat(path); err == nil {
			return fmt.Errorf("%w: snapshot file %s already on disk", ErrExists, path)
		} else if !os.IsNotExist(err) {
			return fmt.Errorf("registry: install %q: %w", id, err)
		}
		if _, err := persist.WriteFileAtomic(path, func(w io.Writer) error {
			_, werr := w.Write(raw)
			return werr
		}); err != nil {
			return fmt.Errorf("registry: install %q: %w", id, err)
		}
		if _, err := r.materialize(e, nil); err != nil {
			os.Remove(path) // refused envelope; leave no trace
			return err
		}
		return nil
	}()
	if err != nil {
		e.deleted = true
		e.mu.Unlock()
		r.mu.Lock()
		if r.streams[id] == e {
			delete(r.streams, id)
		}
		r.mu.Unlock()
		return err
	}
	e.mu.Unlock()
	r.stats.RecordCreate()
	r.enforceCap()
	return nil
}

// InstallStandby writes a snapshot envelope for id and registers it in
// the standby state: detached (every request refused with ErrDetached +
// the owner hint, so a client landing on a replica learns where the live
// copy serves) and overwritable — replication ships a fresher snapshot
// of the same tenant periodically, and each ship replaces the previous
// file. Unlike Install it never materializes a backend: a daemon can
// hold thousands of standby tenants at zero RAM cost. The envelope is
// validated with Peek (when configured) before anything is touched.
// Refuses with ErrExists when id already exists as anything other than a
// standby copy — a live tenant or a detached migration source is never
// clobbered by replication. Returns the point count recorded in the
// envelope (the shipped arrival count, the router's replication-lag
// anchor).
func (r *Registry) InstallStandby(id string, src io.Reader, owner string) (int64, error) {
	if err := ValidateID(id); err != nil {
		return 0, err
	}
	path := r.pathFor(id)
	if path == "" {
		return 0, errors.New("registry: standby install requires persistence (DataDir or a Files entry)")
	}
	raw, err := io.ReadAll(src)
	if err != nil {
		return 0, fmt.Errorf("registry: standby install %q: %w", id, err)
	}
	var cfg StreamConfig
	var count int64
	havePeek := false
	if r.cfg.Peek != nil {
		cfg, count, err = r.cfg.Peek(bytes.NewReader(raw))
		if err != nil {
			return 0, fmt.Errorf("%w: standby envelope for %q rejected: %v", ErrInvalidConfig, id, err)
		}
		havePeek = true
	}
	for {
		r.mu.Lock()
		e, ok := r.streams[id]
		if !ok {
			e = &Stream{id: id, path: path, cfg: r.cfg.Default, detached: true, standby: true, newOwner: owner}
			r.touch(e)
			r.streams[id] = e
			r.mu.Unlock()

			e.mu.Lock()
			if e.deleted {
				e.mu.Unlock()
				continue
			}
			// A snapshot file with no registry entry is not ours to
			// overwrite (mirrors Install): the boot scan registered every
			// file it found, so an unregistered one appeared out of band.
			if _, serr := os.Stat(path); serr == nil {
				err = fmt.Errorf("%w: snapshot file %s already on disk", ErrExists, path)
			} else if !os.IsNotExist(serr) {
				err = fmt.Errorf("registry: standby install %q: %w", id, serr)
			} else {
				err = r.writeStandby(e, raw, cfg, count, havePeek, owner)
			}
			if err != nil {
				e.deleted = true
			}
			e.mu.Unlock()
			if err != nil {
				r.mu.Lock()
				if r.streams[id] == e {
					delete(r.streams, id)
				}
				r.mu.Unlock()
				return 0, err
			}
			r.stats.RecordCreate()
			r.stats.RecordStandbyInstall()
			return count, nil
		}
		r.mu.Unlock()

		e.mu.Lock()
		if e.deleted {
			e.mu.Unlock()
			continue
		}
		if !e.standby {
			e.mu.Unlock()
			return 0, fmt.Errorf("%w: %q is not a standby copy", ErrExists, id)
		}
		err := r.writeStandby(e, raw, cfg, count, havePeek, owner)
		e.mu.Unlock()
		if err != nil {
			return 0, err
		}
		r.stats.RecordStandbyInstall()
		return count, nil
	}
}

// writeStandby persists a shipped envelope over e's snapshot file and
// refreshes the cold-serving metadata; the caller holds e.mu.
func (r *Registry) writeStandby(e *Stream, raw []byte, cfg StreamConfig, count int64, havePeek bool, owner string) error {
	if _, err := persist.WriteFileAtomic(e.path, func(w io.Writer) error {
		_, werr := w.Write(raw)
		return werr
	}); err != nil {
		return fmt.Errorf("registry: standby install %q: %w", e.id, err)
	}
	e.detached = true
	e.standby = true
	e.newOwner = owner
	if havePeek {
		e.cfg = cfg
		e.count = count
		e.lastCkptCount = count
		if cfg.Dim > 0 {
			e.dim.Store(int64(cfg.Dim))
		}
	}
	r.touch(e)
	return nil
}

// Checkpoint persists a stream's current state to its snapshot file
// without hibernating it, returning the bytes written. Hibernated
// streams are a no-op (their file already holds the state).
func (r *Registry) Checkpoint(id string) (int64, error) {
	r.mu.Lock()
	e, ok := r.streams[id]
	r.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return r.checkpointStream(e, false)
}

// checkpointStream writes e's state to its file; force writes even when
// the count is unchanged since the last checkpoint.
func (r *Registry) checkpointStream(e *Stream, onlyDirty bool) (int64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	b := e.backend
	if b == nil || e.deleted {
		return 0, nil // cold: the file is already authoritative
	}
	if onlyDirty {
		if b.Count() == e.lastCkptCount {
			return 0, nil
		}
		if e.path == "" {
			// Memory-only stream (daemon run with -checkpoint but no
			// -data-dir): it has nowhere to persist by construction, so the
			// periodic sweep must not report it as a failure every tick.
			return 0, nil
		}
	}
	sn, ok := b.(Snapshotter)
	if !ok {
		return 0, fmt.Errorf("registry: backend %s cannot snapshot", b.Name())
	}
	if e.path == "" {
		return 0, fmt.Errorf("%w: %q", ErrNoSnapshotPath, e.id)
	}
	n, err := persist.WriteFileAtomic(e.path, sn.Snapshot)
	if err != nil {
		r.checkpoint.RecordFailure()
		return 0, fmt.Errorf("registry: checkpoint %q: %w", e.id, err)
	}
	r.checkpoint.RecordSuccess(n, r.cfg.now())
	e.lastCkptCount = b.Count()
	return n, nil
}

// CheckpointAll persists every resident stream whose count advanced
// since its last checkpoint — the daemon's periodic ticker and graceful
// shutdown path. All streams are attempted; the first error is returned.
func (r *Registry) CheckpointAll() error {
	r.mu.Lock()
	entries := make([]*Stream, 0, len(r.resident))
	for _, e := range r.resident {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	var firstErr error
	for _, e := range entries {
		if _, err := r.checkpointStream(e, true); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Snapshot streams a stream's serialized state to w — from the live
// backend when resident, straight from the snapshot file when
// hibernated (no restore needed to take a backup of a cold tenant).
func (r *Registry) Snapshot(id string, w io.Writer) error {
	r.mu.Lock()
	e, ok := r.streams[id]
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.deleted {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if b := e.backend; b != nil {
		sn, ok := b.(Snapshotter)
		if !ok {
			return fmt.Errorf("registry: backend %s cannot snapshot", b.Name())
		}
		return sn.Snapshot(w)
	}
	if e.path == "" {
		return fmt.Errorf("%w: %q", ErrNoSnapshotPath, e.id)
	}
	f, err := os.Open(e.path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = io.Copy(w, f)
	return err
}

// Info is a point-in-time description of one stream.
type Info struct {
	ID           string  `json:"id"`
	Resident     bool    `json:"resident"`
	Detached     bool    `json:"detached,omitempty"`
	Standby      bool    `json:"standby,omitempty"`
	Backend      string  `json:"backend,omitempty"`
	Algo         string  `json:"algo,omitempty"`
	K            int     `json:"k,omitempty"`
	Dim          int     `json:"dim,omitempty"`
	HalfLife     float64 `json:"half_life,omitempty"`
	HalfLifeSecs float64 `json:"half_life_seconds,omitempty"`
	WindowN      int64   `json:"window_n,omitempty"`
	Shards       int     `json:"shards,omitempty"`
	PointsPerSec float64 `json:"points_per_sec,omitempty"`
	BytesPerSec  float64 `json:"bytes_per_sec,omitempty"`
	MaxResBytes  int64   `json:"max_resident_bytes,omitempty"`
	Count        int64   `json:"count"`
	PointsStored int     `json:"points_stored"`
	LastAccess   int64   `json:"last_access_unix"`
	// CentersCache is the backend's centers-cache counters, reported
	// while the stream is resident and its backend keeps them.
	CentersCache *CacheCounts `json:"centers_cache,omitempty"`
}

// Stat describes one stream without changing its residency; statting a
// cold stream keeps it cold.
func (r *Registry) Stat(id string) (Info, error) {
	r.mu.Lock()
	e, ok := r.streams[id]
	r.mu.Unlock()
	if !ok {
		return Info{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return e.info(), nil
}

// List describes every stream, sorted by id. Cold streams report the
// metadata captured at hibernation (or boot Peek) time.
func (r *Registry) List() []Info {
	r.mu.Lock()
	entries := make([]*Stream, 0, len(r.streams))
	for _, e := range r.streams {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	out := make([]Info, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats summarizes the registry for the /stats endpoint.
type Stats struct {
	Streams    int                        `json:"streams"`
	Resident   int                        `json:"resident"`
	Hibernated int                        `json:"hibernated"`
	Registry   metrics.RegistrySnapshot   `json:"lifecycle"`
	Checkpoint metrics.CheckpointSnapshot `json:"checkpoint"`
}

// Stats captures current gauge values and lifecycle counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	total, res := len(r.streams), len(r.resident)
	r.mu.Unlock()
	return Stats{
		Streams:    total,
		Resident:   res,
		Hibernated: total - res,
		Registry:   r.stats.Snapshot(),
		Checkpoint: r.checkpoint.Snapshot(),
	}
}
