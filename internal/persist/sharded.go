package persist

import (
	"fmt"
	"io"

	"streamkm/internal/core"
	"streamkm/internal/coreset"
	"streamkm/internal/coretree"
	"streamkm/internal/kmeans"
	"streamkm/internal/parallel"
)

// ShardedSnapshot (format version 2) is the complete logical state of a
// parallel.Sharded clusterer: one sub-envelope per shard (each a
// driver-wrapped CT, CC or RCC), the round-robin routing cursor, the
// global point count, and — when the snapshot was taken through
// streamkm.Concurrent — the cached-centers fast-path metadata, so a
// restored server answers its first queries from the same cache entry
// instead of paying an immediate recomputation.
type ShardedSnapshot struct {
	// K is the number of centers answered by global queries.
	K int
	// RR is the round-robin shard cursor at snapshot time.
	RR int64
	// Count is the number of points observed across all shards.
	Count int64
	// Dim is the point dimension, probed from the stored coresets
	// (0 when no points had been ingested yet).
	Dim int
	// Shards holds one envelope per shard, in shard order.
	Shards []Envelope

	// Cached-centers metadata (streamkm.Concurrent). HasCache guards the
	// other fields: a snapshot taken before any query carries none.
	Alpha         float64
	HasCache      bool
	CachedCenters [][]float64
	CachedCount   int64
}

// SnapshotSharded captures a parallel.Sharded into a KindSharded envelope.
// The structure is quiesced (every shard lock held) for the duration, so
// the envelope is a consistent cut: Count equals exactly the points inside
// the per-shard states.
func SnapshotSharded(s *parallel.Sharded) (Envelope, error) {
	snap := &ShardedSnapshot{K: s.K()}
	err := s.Quiesce(func(drvs []*core.Driver, rr, count int64) error {
		snap.RR = rr
		snap.Count = count
		snap.Shards = make([]Envelope, len(drvs))
		for i, drv := range drvs {
			se, err := SnapshotClusterer(drv)
			if err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
			snap.Shards[i] = se
			if snap.Dim == 0 {
				snap.Dim = envelopeDim(se)
			}
		}
		return nil
	})
	if err != nil {
		return Envelope{}, err
	}
	return Envelope{Kind: KindSharded, Sharded: snap}, nil
}

// envelopeDim reads the dimension of the points a captured driver
// envelope stores (0 when it stores none) from the captured state
// itself. Probing the live driver instead would run a CC or RCC query,
// whose cached prefix would change the lane after its state was taken.
func envelopeDim(env Envelope) int {
	if env.Driver != nil && len(env.Driver.Partial) > 0 {
		return len(env.Driver.Partial[0].P)
	}
	var levels [][]coretree.Bucket
	switch {
	case env.CT != nil:
		levels = env.CT.Levels
	case env.CC != nil:
		levels = env.CC.Tree.Levels
	case env.RCC != nil:
		levels = env.RCC.Root.Lists // the root lists hold every bucket
	}
	for _, level := range levels {
		for _, b := range level {
			if len(b.Points) > 0 {
				return len(b.Points[0].P)
			}
		}
	}
	return 0
}

// validateSharded rejects sharded envelopes whose parameters could not
// have been produced by SnapshotSharded; snapshots are untrusted disk
// input.
func validateSharded(s *ShardedSnapshot) error {
	if s == nil {
		return fmt.Errorf("persist: Sharded envelope missing state")
	}
	if s.K < 1 {
		return fmt.Errorf("persist: invalid k %d in sharded snapshot", s.K)
	}
	if len(s.Shards) < 1 {
		return fmt.Errorf("persist: sharded snapshot has no shards")
	}
	if s.Count < 0 {
		return fmt.Errorf("persist: negative count %d in sharded snapshot", s.Count)
	}
	if s.RR < 0 {
		// A negative cursor would make round-robin routing index a negative
		// shard.
		return fmt.Errorf("persist: negative round-robin cursor %d in sharded snapshot", s.RR)
	}
	for i, se := range s.Shards {
		switch se.Kind {
		case KindCT, KindCC, KindRCC:
		default:
			return fmt.Errorf("persist: shard %d has kind %q (want a driver-wrapped CT, CC or RCC)",
				i, se.Kind)
		}
		if se.Kind != s.Shards[0].Kind {
			return fmt.Errorf("persist: shard %d kind %q differs from shard 0 kind %q",
				i, se.Kind, s.Shards[0].Kind)
		}
	}
	if s.HasCache {
		for i, c := range s.CachedCenters {
			if len(c) == 0 {
				return fmt.Errorf("persist: empty cached center %d in sharded snapshot", i)
			}
		}
		if s.CachedCount < 0 {
			return fmt.Errorf("persist: negative cached count %d in sharded snapshot", s.CachedCount)
		}
	}
	return nil
}

// PeekSharded decodes just the metadata of a sharded snapshot — the
// per-shard algorithm, k, point dimension and total count — without
// rebuilding any clustering structure. The stream registry's boot scan
// uses it to register hibernated tenants with accurate metadata while
// keeping them cold.
func PeekSharded(r io.Reader) (algo string, k, dim int, count int64, err error) {
	env, err := Load(r)
	if err != nil {
		return "", 0, 0, 0, err
	}
	if env.Kind != KindSharded {
		return "", 0, 0, 0, fmt.Errorf("persist: expected a Sharded envelope, got kind %q", env.Kind)
	}
	s := env.Sharded
	if err := validateSharded(s); err != nil {
		return "", 0, 0, 0, err
	}
	return string(s.Shards[0].Kind), s.K, s.Dim, s.Count, nil
}

// RestoreSharded reconstructs a live parallel.Sharded from a KindSharded
// envelope. Each shard's driver is restored with a distinct derived seed
// (the same 7919 stride NewSharded uses) so shards never share randomness.
// Cached-centers metadata is not applied here — parallel.Sharded has no
// cache; streamkm.Concurrent reinstalls it from the envelope.
func RestoreSharded(env Envelope, seed int64, b coreset.Builder, opt kmeans.Options) (*parallel.Sharded, error) {
	if env.Kind != KindSharded {
		return nil, fmt.Errorf("persist: expected a Sharded envelope, got kind %q", env.Kind)
	}
	s := env.Sharded
	if err := validateSharded(s); err != nil {
		return nil, err
	}
	drvs := make([]*core.Driver, len(s.Shards))
	for i, se := range s.Shards {
		c, err := RestoreClusterer(se, seed+int64(i)*7919, b, opt)
		if err != nil {
			return nil, fmt.Errorf("persist: shard %d: %w", i, err)
		}
		drv, ok := c.(*core.Driver)
		if !ok {
			return nil, fmt.Errorf("persist: shard %d restored as %T, want *core.Driver", i, c)
		}
		drvs[i] = drv
	}
	sh, err := parallel.NewShardedFromState(s.K, seed, opt, drvs, s.RR, s.Count)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return sh, nil
}
