package server

import (
	"context"
	"encoding/json"
	"net/http"

	"streamkm/internal/registry"
)

// Clusterer is the minimal surface the HTTP layer needs from a streaming
// clusterer: the registry's per-stream Backend. It is deliberately
// algorithm-agnostic ([][]float64 in and out) so windowed, decayed or
// sharded variants serve identically. Implementations must be safe for
// concurrent use.
type Clusterer = registry.Backend

// WeightedAdder is optionally implemented by backends that accept
// weighted points ({"p":[...],"w":2.5} ingest values).
type WeightedAdder interface {
	AddWeighted(p []float64, w float64)
}

// Refresher is optionally implemented by backends with a centers cache;
// GET /streams/{id}/centers?refresh=1 calls it to force recomputation.
type Refresher interface {
	Refresh() [][]float64
}

// ContextCenterer is optionally implemented by backends that stage their
// query internals (e.g. the sharded pipelines' shard-merge) into the
// request's trace span; handleCenters prefers it over Clusterer.Centers.
type ContextCenterer interface {
	CentersContext(ctx context.Context) [][]float64
}

// ContextRefresher is ContextCenterer's forced-recomputation
// counterpart, preferred over Refresher when ?refresh=1 is set.
type ContextRefresher interface {
	RefreshContext(ctx context.Context) [][]float64
}

// CacheStater is optionally implemented by backends with a centers
// cache; GET /streams/{id}/stats reports its hit/miss counters.
type CacheStater = registry.CacheStater

// Snapshotter is optionally implemented by backends whose state can be
// serialized (e.g. streamkm.Concurrent); it powers hibernation,
// checkpoints and GET/POST /streams/{id}/snapshot. Snapshot must be safe
// to call while other goroutines ingest and query.
type Snapshotter = registry.Snapshotter

// queryCenters dispatches a centers query to the richest interface the
// backend offers: context-carrying variants (so backend-internal stages
// like shard-merge land in the request's span) over plain ones, forced
// refresh over the cached fast path.
func queryCenters(ctx context.Context, c Clusterer, refresh bool) [][]float64 {
	if refresh {
		if rf, ok := c.(ContextRefresher); ok {
			return rf.RefreshContext(ctx)
		}
		if rf, ok := c.(Refresher); ok {
			return rf.Refresh()
		}
	}
	if cc, ok := c.(ContextCenterer); ok {
		return cc.CentersContext(ctx)
	}
	return c.Centers()
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}
