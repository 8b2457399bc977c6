package streamkm

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"streamkm/internal/decay"
	"streamkm/internal/persist"
	"streamkm/internal/registry"
	"streamkm/internal/window"
)

// This file is the serving layer's backend factory: every layer above the
// library (registry, HTTP server, daemon, bench tooling) creates and
// restores clustering backends through a BackendSpec instead of
// hardcoding a concrete constructor, so a multi-tenant daemon can run
// infinite-stream, forward-decay and sliding-window tenants side by side
// — and every variant survives a restart through the same snapshot
// machinery.

// BackendType selects a serving-backend variant.
type BackendType string

// Available backend variants.
const (
	// BackendConcurrent is the infinite-stream default: sharded ingest
	// with the cached-centers query fast path (Concurrent).
	BackendConcurrent BackendType = "concurrent"
	// BackendDecayed weights points with forward exponential decay —
	// influence halves every HalfLife arrivals (internal/decay), the
	// smooth answer to concept drift.
	BackendDecayed BackendType = "decayed"
	// BackendWindowed clusters only the last WindowN arrivals via a
	// Braverman-style exponential histogram of coresets
	// (internal/window), the hard-horizon answer to recency.
	BackendWindowed BackendType = "windowed"
)

// BackendTypes lists every backend variant.
func BackendTypes() []BackendType {
	return []BackendType{BackendConcurrent, BackendDecayed, BackendWindowed}
}

// BackendSpec identifies one serving backend: the variant, the summary
// structure, and the variant-specific knobs. Zero-valued fields select
// defaults (Type concurrent, Algo CC, Shards GOMAXPROCS); HalfLife is
// required for decayed backends and WindowN for windowed ones. The JSON
// field names are the wire format PUT /streams/{id} accepts.
type BackendSpec struct {
	// Type selects the variant; empty means BackendConcurrent.
	Type BackendType `json:"backend,omitempty"`
	// Algo is the summary structure (CT, CC or RCC) for concurrent and
	// decayed backends; ignored by windowed ones (their histogram is not
	// built on the coreset tree). Empty means AlgoCC.
	Algo Algo `json:"algo,omitempty"`
	// K is the number of centers queries answer. Required (>= 1).
	K int `json:"k,omitempty"`
	// Dim is the expected point dimension; 0 adopts the first point's.
	Dim int `json:"dim,omitempty"`
	// Shards is the ingest parallelism, for every variant: concurrent
	// backends shard their stationary structures, decayed and windowed
	// ones run the sharded sequencing pipeline (per-lane sub-structures
	// merged at query time). 0 means GOMAXPROCS.
	Shards int `json:"shards,omitempty"`
	// HalfLife is the decay half-life in arrival counts (decayed only;
	// exactly one of HalfLife and HalfLifeSeconds must be > 0).
	HalfLife float64 `json:"half_life,omitempty"`
	// HalfLifeSeconds is the decay half-life in wall-clock seconds
	// (decayed only; mutually exclusive with HalfLife). A point's
	// influence halves every HalfLifeSeconds of elapsed time regardless
	// of arrival rate, with timestamps taken from a monotonic clock at
	// sequencing time.
	HalfLifeSeconds float64 `json:"half_life_seconds,omitempty"`
	// WindowN is the sliding-window length in points (windowed only;
	// >= the coreset bucket size).
	WindowN int64 `json:"window_n,omitempty"`

	// Per-tenant quota knobs (0 = unlimited), valid on every variant.
	// The backends themselves never enforce them — enforcement lives at
	// the registry boundary — but the spec carries them so they persist
	// through snapshots and travel with migrated tenants.
	PointsPerSec     float64 `json:"points_per_sec,omitempty"`
	BytesPerSec      float64 `json:"bytes_per_sec,omitempty"`
	MaxResidentBytes int64   `json:"max_resident_bytes,omitempty"`
}

// hasQuota reports whether any quota knob is set, i.e. whether the spec
// needs the quota-carrying v3 envelope even for a concurrent backend.
func (s BackendSpec) hasQuota() bool {
	return s.PointsPerSec != 0 || s.BytesPerSec != 0 || s.MaxResidentBytes != 0
}

// Backend is a servable streaming clusterer: the registry/HTTP surface
// (batch ingest, centers, counters) plus snapshot/restore and spec
// introspection. Implementations are safe for concurrent use.
type Backend interface {
	// AddBatch observes a batch of unit-weight points.
	AddBatch(pts [][]float64)
	// AddWeighted observes one point carrying weight w > 0.
	AddWeighted(p []float64, w float64)
	// Centers returns the current cluster centers (copies).
	Centers() [][]float64
	// Count returns the number of points observed so far.
	Count() int64
	// PointsStored reports memory use in stored points.
	PointsStored() int
	// Name identifies the algorithm in reports.
	Name() string
	// Snapshot serializes the backend's complete logical state to w; the
	// result restores via Restore with a matching (or zero) spec.
	Snapshot(w io.Writer) error
	// Spec reports the spec this backend was opened or restored with.
	Spec() BackendSpec
}

// withDefaults materializes the spec's defaults and validates the
// variant-specific knobs.
func (s BackendSpec) withDefaults() (BackendSpec, error) {
	if s.Type == "" {
		s.Type = BackendConcurrent
	}
	if s.Algo == "" {
		s.Algo = AlgoCC
	}
	if s.Shards < 1 {
		s.Shards = runtime.GOMAXPROCS(0)
	}
	// Irrelevant knobs are rejected, not ignored: a stray half_life on a
	// windowed spec would otherwise be recorded in the stream config,
	// fail the PUT-vs-restore match on the next rehydration, and brick
	// the tenant long after the PUT was acknowledged.
	switch s.Type {
	case BackendConcurrent:
		if s.HalfLife != 0 || s.HalfLifeSeconds != 0 || s.WindowN != 0 {
			return s, fmt.Errorf("streamkm: concurrent backend takes neither half_life (%v/%vs) nor window_n (%d)", s.HalfLife, s.HalfLifeSeconds, s.WindowN)
		}
	case BackendDecayed:
		if s.HalfLife < 0 || s.HalfLifeSeconds < 0 {
			return s, fmt.Errorf("streamkm: decayed backend half-lives must be positive, got half_life %v, half_life_seconds %v", s.HalfLife, s.HalfLifeSeconds)
		}
		if (s.HalfLife > 0) == (s.HalfLifeSeconds > 0) {
			return s, fmt.Errorf("streamkm: decayed backend requires exactly one of half_life (%v) and half_life_seconds (%v)", s.HalfLife, s.HalfLifeSeconds)
		}
		if s.WindowN != 0 {
			return s, fmt.Errorf("streamkm: decayed backend takes no window_n, got %d", s.WindowN)
		}
	case BackendWindowed:
		if s.WindowN < 1 {
			return s, fmt.Errorf("streamkm: windowed backend requires window_n >= 1, got %d", s.WindowN)
		}
		if s.HalfLife != 0 || s.HalfLifeSeconds != 0 {
			return s, fmt.Errorf("streamkm: windowed backend takes no half_life, got %v/%vs", s.HalfLife, s.HalfLifeSeconds)
		}
	default:
		return s, fmt.Errorf("streamkm: unknown backend type %q (want concurrent, decayed or windowed)", s.Type)
	}
	if s.Dim < 0 {
		return s, fmt.Errorf("streamkm: backend dim must be >= 0, got %d", s.Dim)
	}
	if s.PointsPerSec < 0 {
		return s, fmt.Errorf("streamkm: points_per_sec must be >= 0, got %v", s.PointsPerSec)
	}
	if s.BytesPerSec < 0 {
		return s, fmt.Errorf("streamkm: bytes_per_sec must be >= 0, got %v", s.BytesPerSec)
	}
	if s.MaxResidentBytes < 0 {
		return s, fmt.Errorf("streamkm: max_resident_bytes must be >= 0, got %d", s.MaxResidentBytes)
	}
	return s, nil
}

// check compares a requested spec against the spec recovered from a
// snapshot: every nonzero requested field must match, so a PUT that
// declares "decayed, half-life 1000" can never silently resume a
// concurrent (or differently tuned) snapshot. Shards is exempt — a
// restored concurrent backend keeps the snapshot's shard count by
// design. Quotas are exempt too: they are operator policy, not model
// identity, and must be adjustable without bricking a tenant whose
// snapshot recorded the old limit.
func (s BackendSpec) check(got BackendSpec) error {
	if s.Type != "" && s.Type != got.Type {
		return fmt.Errorf("streamkm: snapshot holds a %s backend, spec wants %s", got.Type, s.Type)
	}
	if s.Algo != "" && got.Algo != "" && s.Algo != got.Algo {
		return fmt.Errorf("streamkm: snapshot algo %s does not match spec algo %s", got.Algo, s.Algo)
	}
	if s.K != 0 && s.K != got.K {
		return fmt.Errorf("streamkm: snapshot k=%d does not match spec k=%d", got.K, s.K)
	}
	if s.Dim > 0 && got.Dim > 0 && s.Dim != got.Dim {
		return fmt.Errorf("streamkm: snapshot dimension %d does not match spec dim %d", got.Dim, s.Dim)
	}
	if s.HalfLife != 0 && s.HalfLife != got.HalfLife {
		return fmt.Errorf("streamkm: snapshot half-life %v does not match spec half_life %v", got.HalfLife, s.HalfLife)
	}
	if s.HalfLifeSeconds != 0 && s.HalfLifeSeconds != got.HalfLifeSeconds {
		return fmt.Errorf("streamkm: snapshot wall-clock half-life %v does not match spec half_life_seconds %v", got.HalfLifeSeconds, s.HalfLifeSeconds)
	}
	if s.WindowN != 0 && s.WindowN != got.WindowN {
		return fmt.Errorf("streamkm: snapshot window %d does not match spec window_n %d", got.WindowN, s.WindowN)
	}
	return nil
}

// SpecFromStreamConfig maps the registry's wire-form stream
// configuration onto a backend spec. shards is the serving layer's
// default per-stream ingest parallelism, overridden by the stream's
// own "shards" knob when set (0 keeps the package default, or — on
// restore — the snapshot's recorded layout). The single definition
// here keeps the daemon, tests and examples from each hand-maintaining
// the field mapping.
func SpecFromStreamConfig(sc registry.StreamConfig, shards int) BackendSpec {
	if sc.Shards > 0 {
		shards = sc.Shards
	}
	return BackendSpec{
		Type:             BackendType(sc.Backend),
		Algo:             Algo(sc.Algo),
		K:                sc.K,
		Dim:              sc.Dim,
		Shards:           shards,
		HalfLife:         sc.HalfLife,
		HalfLifeSeconds:  sc.HalfLifeSeconds,
		WindowN:          sc.WindowN,
		PointsPerSec:     sc.PointsPerSec,
		BytesPerSec:      sc.BytesPerSec,
		MaxResidentBytes: sc.MaxResidentBytes,
	}
}

// StreamConfig is the inverse mapping, for reporting a backend's actual
// spec back to a registry.
func (s BackendSpec) StreamConfig() registry.StreamConfig {
	return registry.StreamConfig{
		Backend:          string(s.Type),
		Algo:             string(s.Algo),
		K:                s.K,
		Dim:              s.Dim,
		Shards:           s.Shards,
		HalfLife:         s.HalfLife,
		HalfLifeSeconds:  s.HalfLifeSeconds,
		WindowN:          s.WindowN,
		PointsPerSec:     s.PointsPerSec,
		BytesPerSec:      s.BytesPerSec,
		MaxResidentBytes: s.MaxResidentBytes,
	}
}

// Open creates a fresh serving backend from a spec. cfg supplies the
// shared tuning (BucketSize, MergeDegree, Seed, Builder, query options,
// Alpha for the centers cache); cfg.K is overridden by spec.K.
func Open(spec BackendSpec, cfg Config) (Backend, error) {
	spec, err := spec.withDefaults()
	if err != nil {
		return nil, err
	}
	cfg.K = spec.K
	switch spec.Type {
	case BackendConcurrent:
		c, err := NewConcurrent(spec.Algo, spec.Shards, cfg)
		if err != nil {
			return nil, err
		}
		c.spec = spec
		return c, nil
	case BackendDecayed:
		switch spec.Algo {
		case AlgoCT, AlgoCC, AlgoRCC:
		default:
			return nil, fmt.Errorf("streamkm: decayed backend supports CT, CC and RCC, not %q", spec.Algo)
		}
		cfg, err := cfg.withDefaults()
		if err != nil {
			return nil, err
		}
		b, err := cfg.builder()
		if err != nil {
			return nil, err
		}
		lambda, wall := ln2/spec.HalfLife, false
		if spec.HalfLifeSeconds > 0 {
			lambda, wall = ln2/spec.HalfLifeSeconds, true
		}
		sh, err := decay.NewSharded(spec.Shards, cfg.K, lambda, cfg.Seed, cfg.queryOptions(),
			driverFactory(spec.Algo, cfg, b))
		if err != nil {
			return nil, err
		}
		return &laneBackend{spec: spec, alpha: cfg.Alpha,
			lanes: &decayedLanes{Sharded: sh, wall: wall, epoch: time.Now()}}, nil
	case BackendWindowed:
		cfg, err := cfg.withDefaults()
		if err != nil {
			return nil, err
		}
		b, err := cfg.builder()
		if err != nil {
			return nil, err
		}
		sh, err := window.NewSharded(spec.Shards, cfg.K, cfg.BucketSize, cfg.MergeDegree,
			spec.WindowN, b, cfg.Seed, cfg.queryOptions())
		if err != nil {
			return nil, err
		}
		spec.Algo = ""
		return &laneBackend{spec: spec, alpha: cfg.Alpha, lanes: windowedLanes{sh}}, nil
	}
	return nil, fmt.Errorf("streamkm: unknown backend type %q", spec.Type)
}

// Restore reconstructs a serving backend previously written by a
// Backend's Snapshot (any variant, any format generation: bare v2
// sharded envelopes restore as concurrent backends, v3 typed envelopes
// as whatever they declare). spec's nonzero fields are validated against
// the snapshot — a mismatch is an error, never a silently wrong model;
// pass a zero spec to adopt whatever the file holds. cfg supplies the
// non-serialized pieces (Seed, Builder, query options), as for Load.
func Restore(spec BackendSpec, r io.Reader, cfg Config) (Backend, error) {
	env, err := persist.Load(r)
	if err != nil {
		return nil, err
	}
	var b Backend
	switch env.Kind {
	case persist.KindSharded:
		b, err = concurrentFromSharded(env.Sharded, cfg)
	case persist.KindBackend:
		b, err = backendFromEnvelope(env.Backend, cfg)
	default:
		return nil, fmt.Errorf("streamkm: snapshot holds a single %q clusterer, not a serving backend (use Load)", env.Kind)
	}
	if err != nil {
		return nil, err
	}
	if err := spec.check(b.Spec()); err != nil {
		return nil, err
	}
	return b, nil
}

// backendFromEnvelope dispatches a validated v3 backend envelope to the
// variant's restore path.
func backendFromEnvelope(bs *persist.BackendSnapshot, cfg Config) (Backend, error) {
	if err := persist.ValidateBackend(bs); err != nil {
		return nil, err
	}
	switch bs.Type {
	case persist.BackendConcurrent:
		c, err := concurrentFromSharded(bs.Sharded, cfg)
		if err != nil {
			return nil, err
		}
		c.spec.PointsPerSec = bs.PointsPerSec
		c.spec.BytesPerSec = bs.BytesPerSec
		c.spec.MaxResidentBytes = bs.MaxResidentBytes
		return c, nil
	case persist.BackendDecayed:
		cfg.K = 1
		cfg, err := cfg.withDefaults()
		if err != nil {
			return nil, err
		}
		builder, err := cfg.builder()
		if err != nil {
			return nil, err
		}
		var (
			sh   *decay.Sharded
			wall bool
		)
		if len(bs.DecayedShards) > 0 {
			// v4 sharded snapshot: per-lane sub-envelopes plus sequencer
			// cursors restore the pipeline exactly as quiesced.
			lambda := ln2 / bs.HalfLife
			if bs.HalfLifeSeconds > 0 {
				lambda, wall = ln2/bs.HalfLifeSeconds, true
			}
			shards, err := persist.RestoreDecayedShards(bs.DecayedShards, lambda, cfg.Seed, builder, cfg.queryOptions())
			if err != nil {
				return nil, err
			}
			sh, err = decay.NewShardedFromShards(bs.K, lambda, cfg.Seed, cfg.queryOptions(),
				shards, bs.Clock, bs.RR, bs.Count)
			if err != nil {
				return nil, err
			}
		} else {
			// Legacy single-lock snapshot: the restored clusterer becomes
			// lane 0 of a one-lane pipeline, continuing the identical
			// arrival-count weight timeline.
			dc, err := persist.RestoreDecayed(bs.Decayed, cfg.Seed, builder, cfg.queryOptions())
			if err != nil {
				return nil, err
			}
			lane0, err := dc.Shard(float64(bs.Count) + 1)
			if err != nil {
				return nil, err
			}
			sh, err = decay.NewShardedFromShards(bs.K, lane0.Lambda(), cfg.Seed, cfg.queryOptions(),
				[]*decay.Shard{lane0}, bs.Count, 0, bs.Count)
			if err != nil {
				return nil, err
			}
		}
		spec := specFromSnapshot(bs)
		spec.Shards = sh.NumLanes()
		return &laneBackend{spec: spec, alpha: cfg.Alpha,
			lanes: &decayedLanes{Sharded: sh, wall: wall, epoch: time.Now(), base: bs.ElapsedSeconds}}, nil
	case persist.BackendWindowed:
		cfg.K = 1
		cfg, err := cfg.withDefaults()
		if err != nil {
			return nil, err
		}
		builder, err := cfg.builder()
		if err != nil {
			return nil, err
		}
		var sh *window.Sharded
		if len(bs.WindowShards) > 0 {
			subs, err := persist.RestoreWindowShards(bs.WindowShards, cfg.Seed, builder, cfg.queryOptions())
			if err != nil {
				return nil, err
			}
			sh, err = window.NewShardedFromLanes(bs.K, bs.WindowN, cfg.Seed, cfg.queryOptions(),
				subs, bs.Clock, bs.RR, bs.Count)
			if err != nil {
				return nil, err
			}
		} else {
			// Legacy single-lock snapshot: lane 0 of a one-lane pipeline.
			wc, err := persist.RestoreWindowed(bs.Window, cfg.Seed, builder, cfg.queryOptions())
			if err != nil {
				return nil, err
			}
			sh, err = window.NewShardedFromLanes(bs.K, bs.WindowN, cfg.Seed, cfg.queryOptions(),
				[]*window.Clusterer{wc}, bs.Count, 0, bs.Count)
			if err != nil {
				return nil, err
			}
		}
		spec := specFromSnapshot(bs)
		spec.Shards = sh.NumLanes()
		return &laneBackend{spec: spec, alpha: cfg.Alpha, lanes: windowedLanes{sh}}, nil
	}
	return nil, fmt.Errorf("streamkm: unknown backend type %q in snapshot", bs.Type)
}

// specFromSnapshot recovers the spec recorded in a backend envelope.
func specFromSnapshot(bs *persist.BackendSnapshot) BackendSpec {
	return BackendSpec{
		Type:             BackendType(bs.Type),
		Algo:             Algo(bs.Algo),
		K:                bs.K,
		Dim:              bs.Dim,
		Shards:           bs.Shards,
		HalfLife:         bs.HalfLife,
		HalfLifeSeconds:  bs.HalfLifeSeconds,
		WindowN:          bs.WindowN,
		PointsPerSec:     bs.PointsPerSec,
		BytesPerSec:      bs.BytesPerSec,
		MaxResidentBytes: bs.MaxResidentBytes,
	}
}
