package main

import (
	"fmt"
	"math"
)

// Every tenant uses the daemon's defaults apart from its backend spec:
// k centers, shards ingest lanes, one k-means++ run and no Lloyd at query
// time, bucket size 20k.
const (
	k      = 10
	shards = 2
	bucket = 20 * k
)

// tenant is one stream of a workload.
type tenant struct {
	ID       string
	Type     string  // concurrent, decayed or windowed
	Algo     string  // CC or RCC; windowed tenants ignore it
	HalfLife float64 // decayed: half-life in points
	WindowN  int64   // windowed: window length in points
}

// spec is the PUT /streams/{id} body creating the tenant.
func (t tenant) spec() map[string]any {
	s := map[string]any{"backend": t.Type, "k": k, "shards": shards}
	if t.Type != "windowed" {
		s["algo"] = t.Algo
	}
	switch t.Type {
	case "decayed":
		s["half_life"] = t.HalfLife
	case "windowed":
		s["window_n"] = t.WindowN
	}
	return s
}

// workload is one traffic mix. Ingest runs in a closed loop over Conns
// connections, or in an open loop at IngestRate requests/s when Conns is
// 0. Plain queries and forced refreshes always run in open loops at their
// own fixed rates, rotating over the tenants. Every loop holds at most one
// connection per CPU.
type workload struct {
	Name    string
	Tenants []tenant
	Wire    string // "binary" or "ndjson"
	Batch   int    // points per ingest request
	Bodies  int    // distinct pre-encoded bodies per tenant, sent in a cycle

	Conns       int
	IngestRate  float64
	QueryRate   float64
	RefreshRate float64

	// RefreshHot sends each refresh to the tenant of the ingest request
	// that completed last, which is resident, instead of rotating over all
	// tenants.
	RefreshHot bool

	MaxStreams int // > 0: the daemon hibernates to -data-dir beyond this many resident streams
	Daemons    int // > 1: the daemons sit behind one streamkm-router
}

// poolSize is the number of distinct points each tenant cycles through.
func (w workload) poolSize() int { return w.Batch * w.Bodies }

func mixed(prefix string, nc, nd, nw int, halfLife float64, windowN int64) []tenant {
	var ts []tenant
	for i := 0; i < nc; i++ {
		ts = append(ts, tenant{ID: fmt.Sprintf("%s-c%02d", prefix, i), Type: "concurrent", Algo: "CC"})
	}
	for i := 0; i < nd; i++ {
		ts = append(ts, tenant{ID: fmt.Sprintf("%s-d%02d", prefix, i), Type: "decayed", Algo: "CC", HalfLife: halfLife})
	}
	for i := 0; i < nw; i++ {
		ts = append(ts, tenant{ID: fmt.Sprintf("%s-w%02d", prefix, i), Type: "windowed", WindowN: windowN})
	}
	return ts
}

// workloads lists every workload by name. BENCHMARK.json and README.md
// say why each exists.
var workloads = map[string]workload{
	"ingest": {
		Name:    "ingest",
		Tenants: mixed("ing", 4, 4, 4, 20000, 20000),
		Wire:    "binary", Batch: 2000, Bodies: 2,
		QueryRate: 20, RefreshRate: 40,
	},
	"query": {
		Name: "query",
		// Five tenants, not four: each backend answers refreshes at its own
		// cost, and with an even number of equally loaded tenants the
		// median refresh falls on the boundary between two of them.
		Tenants: []tenant{
			{ID: "q-cc", Type: "concurrent", Algo: "CC"},
			{ID: "q-rcc", Type: "concurrent", Algo: "RCC"},
			{ID: "q-dec", Type: "decayed", Algo: "CC", HalfLife: 5000},
			{ID: "q-dec2", Type: "decayed", Algo: "CC", HalfLife: 2500},
			{ID: "q-win", Type: "windowed", WindowN: 5000},
		},
		Wire: "binary", Batch: 1000, Bodies: 4,
		IngestRate: 20, QueryRate: 200, RefreshRate: 50,
	},
	"churn": {
		Name:    "churn",
		Tenants: mixed("chn", 11, 11, 10, 20000, 20000),
		Wire:    "binary", Batch: 500, Bodies: 4,
		QueryRate: 5, RefreshRate: 20, RefreshHot: true,
		MaxStreams: 8,
	},
	"routed": {
		Name:    "routed",
		Tenants: mixed("rt", 8, 0, 0, 0, 0),
		Wire:    "ndjson", Batch: 1000, Bodies: 4,
		QueryRate: 50, RefreshRate: 40,
		Daemons: 2, Conns: 1,
	},
}

func init() {
	// Closed-loop workloads use one connection per CPU; set here so the
	// table above stays declarative.
	for name, w := range workloads {
		if w.IngestRate == 0 && w.Conns == 0 {
			w.Conns = nprocs()
		}
		if w.Daemons == 0 {
			w.Daemons = 1
		}
		workloads[name] = w
	}
}

// decayWeight is the forward-decay weight of the point at arrival index
// a (1-based) once n points have arrived, for a half-life in points.
func decayWeight(a, n int, halfLife float64) float64 {
	return math.Exp2(-float64(n-a) / halfLife)
}
