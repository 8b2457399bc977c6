package registry

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Stream is one registered tenant: a name, a snapshot path, and — while
// resident — a live backend. All fields except the atomics are guarded
// by mu; the registry passes the Stream into With callbacks with mu
// held, so callbacks may use the exported methods but must not retain
// the pointer past their return.
type Stream struct {
	id   string
	path string

	mu       sync.RWMutex
	backend  Backend // nil while hibernated
	cfg      StreamConfig
	explicit bool // created via Create (PUT): cfg is a promise, not a default
	deleted  bool
	// detached marks a stream frozen for migration to another daemon:
	// hibernated, file authoritative, every request refused with
	// ErrDetached until Reattach or Delete. newOwner is the forwarding
	// hint handed to refused clients.
	detached bool
	newOwner string
	// standby marks a detached entry as a replication target: the copy was
	// shipped here by InstallStandby and may be overwritten by a fresher
	// ship at any time. The flag is what distinguishes a copy that is safe
	// to overwrite (a replica, whose newest state lives elsewhere) from a
	// detached migration source (the only authoritative copy, never to be
	// clobbered). Reattach — promotion — clears it.
	standby bool
	// Metadata captured at hibernation (or boot Peek) time, served while
	// the stream is cold.
	count         int64
	stored        int
	lastCkptCount int64

	// restoreTimes holds the instants (unix nanos) of the most recent
	// snapshot restores, newest last — the churn signal restore-thrash
	// admission control sheds on. Guarded by mu held exclusively (only
	// materialize and admitRestore touch it).
	restoreTimes []int64

	// Token-bucket state for the per-tenant ingest quotas, guarded by its
	// own mutex: quota checks run inside With callbacks, which hold mu
	// only in read mode (shared across concurrent requests). Rates come
	// from cfg at check time; tokens start full (one second of burst) on
	// first use.
	qmu         sync.Mutex
	qInit       bool
	ptsTokens   float64
	bytesTokens float64
	qLast       int64 // unix nanos of the last refill

	dim        atomic.Int64 // adopted point dimension; 0 until known
	lastAccess atomic.Int64 // unix nanos of the most recent access (TTL sweeps)
	accessSeq  atomic.Int64 // registry sequence number of the most recent access (LRU order)
}

// ID returns the stream's name.
func (e *Stream) ID() string { return e.id }

// Config returns the stream's clustering configuration.
func (e *Stream) Config() StreamConfig { return e.cfg }

// Dim returns the stream's point dimension, 0 while unknown.
func (e *Stream) Dim() int { return int(e.dim.Load()) }

// AdoptDim fixes the stream's dimension to d if none is known yet (no-op
// otherwise). The daemon uses it to apply a -dim flag to a restored
// stream whose snapshot predates any ingested point.
func (e *Stream) AdoptDim(d int) {
	if d > 0 {
		e.dim.CompareAndSwap(0, int64(d))
	}
}

// CheckDim enforces a single point dimension per stream, adopting the
// first observed dimension when none was configured. Lock-free; safe
// from concurrent With callbacks.
func (e *Stream) CheckDim(p []float64) error {
	d := int64(len(p))
	if e.dim.CompareAndSwap(0, d) {
		return nil
	}
	if want := e.dim.Load(); want != d {
		return fmt.Errorf("dimension mismatch: stream is %d-dimensional, got %d", want, d)
	}
	return nil
}

// info snapshots the stream's description, preferring the live backend's
// numbers when resident.
func (e *Stream) info() Info {
	e.mu.RLock()
	defer e.mu.RUnlock()
	in := Info{
		ID:           e.id,
		Detached:     e.detached,
		Standby:      e.standby,
		Backend:      e.cfg.Backend,
		Algo:         e.cfg.Algo,
		K:            e.cfg.K,
		Dim:          int(e.dim.Load()),
		HalfLife:     e.cfg.HalfLife,
		HalfLifeSecs: e.cfg.HalfLifeSeconds,
		WindowN:      e.cfg.WindowN,
		PointsPerSec: e.cfg.PointsPerSec,
		BytesPerSec:  e.cfg.BytesPerSec,
		MaxResBytes:  e.cfg.MaxResidentBytes,
		Count:        e.count,
		PointsStored: e.stored,
		LastAccess:   e.lastAccess.Load() / 1e9,
	}
	if b := e.backend; b != nil {
		in.Resident = true
		in.Count = b.Count()
		in.PointsStored = b.PointsStored()
		if s, ok := b.(Sharder); ok {
			in.Shards = s.NumShards()
		}
		if cs, ok := b.(CacheStater); ok {
			hits, misses := cs.CacheStats()
			in.CentersCache = &CacheCounts{Hits: hits, Misses: misses}
		}
	}
	return in
}

// Sharder is optionally implemented by backends with parallel ingest
// lanes; Info reports the lane count for resident streams.
type Sharder interface {
	NumShards() int
}

// CacheStater is optionally implemented by backends with a centers
// cache; Info reports its hit and miss counters for resident streams.
type CacheStater interface {
	CacheStats() (hits, misses int64)
}

// CacheCounts is a centers cache's hit and miss counters.
type CacheCounts struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}
