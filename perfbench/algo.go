package main

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"streamkm/internal/core"
	"streamkm/internal/coreset"
	"streamkm/internal/decay"
	"streamkm/internal/geom"
	"streamkm/internal/kmeans"
	"streamkm/internal/parallel"
	"streamkm/internal/window"
)

// The algorithm half replays at most this many tenants per backend type,
// each for at most algoBatches requests, with a query every algoQueryEvery
// requests.
const (
	algoTenants    = 4
	algoBatches    = 24
	algoQueryEvery = 3
)

// algoTimes collects the algorithm half's timings, in milliseconds unless
// named otherwise.
type algoTimes struct {
	mu        sync.Mutex
	builds    []float64 // coreset.Builder.Build calls
	updateUs  []float64 // per-point cost of lane AddBatch calls into core drivers
	union     []float64 // core.Driver.CoresetUnion per lane
	merge     map[string][]float64
	query     []float64 // kmeans.Run over the merged coreset
	nearestNs []float64 // FlatCenters.Nearest per point
	ccHits    int64
	ccQueries int64
}

// nearestSink keeps the timed Nearest loop from being optimized away.
var nearestSink float64

// timedBuilder is coreset.KMeansPP with every Build timed.
type timedBuilder struct{ at *algoTimes }

func (b timedBuilder) Name() string { return coreset.KMeansPP{}.Name() }

func (b timedBuilder) Build(rng *rand.Rand, pts []geom.Weighted, m int) []geom.Weighted {
	t0 := time.Now()
	out := coreset.KMeansPP{}.Build(rng, pts, m)
	d := ms(time.Since(t0))
	b.at.mu.Lock()
	b.at.builds = append(b.at.builds, d)
	b.at.mu.Unlock()
	return out
}

// lanes is one tenant's algorithm stack, built from the public
// constructors with the daemon's defaults.
type lanes struct {
	add     func([]geom.Weighted)
	merge   func() []geom.Weighted
	drivers []*core.Driver
	ccs     []*core.CC
}

func newLanes(t tenant, at *algoTimes, seed int64) (*lanes, error) {
	b := timedBuilder{at}
	opts := kmeans.Options{Runs: 1, Tol: 1e-4}
	l := &lanes{}
	// The constructors call driver once per lane, synchronously.
	driver := func(_ int, s int64) *core.Driver {
		rng := rand.New(rand.NewSource(s))
		var st core.Structure
		if t.Algo == "RCC" {
			st = core.NewRCC(3, bucket, b, rng)
		} else {
			cc := core.NewCC(2, bucket, b, rng)
			l.ccs = append(l.ccs, cc)
			st = cc
		}
		d := core.NewDriver(st, k, bucket, rng, opts)
		l.drivers = append(l.drivers, d)
		return d
	}
	switch t.Type {
	case "concurrent":
		sh, err := parallel.NewSharded(shards, k, seed, opts, driver)
		if err != nil {
			return nil, err
		}
		l.add = func(wps []geom.Weighted) { sh.AddBatchTo(sh.NextShard(), wps) }
		l.merge = sh.CoresetUnion
	case "decayed":
		sh, err := decay.NewSharded(shards, k, math.Ln2/t.HalfLife, seed, opts, driver)
		if err != nil {
			return nil, err
		}
		l.add = sh.AddBatch
		l.merge = sh.Coreset
	default:
		sh, err := window.NewSharded(shards, k, bucket, 2, t.WindowN, b, seed, opts)
		if err != nil {
			return nil, err
		}
		l.add = sh.AddBatch
		l.merge = sh.Coreset
	}
	return l, nil
}

// algorithmHalf replays tenants' acknowledged streams through the
// algorithm layers. Types the workload lacks replay the first tenant's
// stream with the decayed and windowed defaults of the ingest workload, so
// every layer reports on every workload.
func algorithmHalf(in *inputs, seqs [][]int, seed int64) (*algoTimes, error) {
	at := &algoTimes{merge: map[string][]float64{}}
	for _, typ := range []string{"concurrent", "decayed", "windowed"} {
		var picks []int
		for i, t := range in.W.Tenants {
			if t.Type == typ && len(picks) < algoTenants {
				picks = append(picks, i)
			}
		}
		synthetic := len(picks) == 0
		if synthetic {
			picks = []int{0}
		}
		for _, i := range picks {
			t := in.W.Tenants[i]
			if synthetic {
				t = tenant{ID: t.ID, Type: typ, Algo: "CC", HalfLife: 20000, WindowN: 20000}
			}
			if err := replay(in, i, t, seqs[i], at, seed+int64(i)); err != nil {
				return nil, err
			}
		}
	}
	return at, nil
}

func replay(in *inputs, ti int, t tenant, seq []int, at *algoTimes, seed int64) error {
	l, err := newLanes(t, at, seed)
	if err != nil {
		return err
	}
	w := in.W
	pool := in.Pools[ti]
	if len(seq) == 0 {
		seq = []int{0}
	}
	if len(seq) > algoBatches {
		seq = seq[:algoBatches]
	}
	rng := rand.New(rand.NewSource(seed))
	fc := geom.FlattenCenters(toGeom(in.Ref[ti]))
	for n, s := range seq {
		base := (s % w.Bodies) * w.Batch
		wps := make([]geom.Weighted, w.Batch)
		for i := range wps {
			wps[i] = geom.Weighted{P: geom.Point(pool[base+i]), W: 1}
		}
		t0 := time.Now()
		l.add(wps)
		d := time.Since(t0)
		if t.Type != "windowed" {
			at.add(&at.updateUs, float64(d.Microseconds())/float64(len(wps)))
		}
		if (n+1)%algoQueryEvery != 0 {
			continue
		}
		// Alternate between timing the per-lane core unions and the
		// lane-layer merge, so neither primes the coreset cache for the
		// other.
		var union []geom.Weighted
		if t.Type != "windowed" && (n/algoQueryEvery)%2 == 1 {
			for _, drv := range l.drivers {
				t0 = time.Now()
				part := drv.CoresetUnion()
				at.add(&at.union, ms(time.Since(t0)))
				union = append(union, part...)
			}
		} else {
			t0 = time.Now()
			union = l.merge()
			at.addMerge(t.Type, ms(time.Since(t0)))
		}
		t0 = time.Now()
		centers, _ := kmeans.Run(rng, union, k, kmeans.Options{Runs: 1, Tol: 1e-4})
		at.add(&at.query, ms(time.Since(t0)))
		if len(centers) > 0 {
			fc = geom.FlattenCenters(centers)
		}
		t0 = time.Now()
		var sum float64
		for _, p := range pool {
			d, _ := fc.Nearest(geom.Point(p))
			sum += d
		}
		at.add(&at.nearestNs, float64(time.Since(t0).Nanoseconds())/float64(len(pool)))
		nearestSink = sum
	}
	for _, cc := range l.ccs {
		st := cc.Stats()
		at.mu.Lock()
		at.ccHits += st.ExactHits + st.MajorHits
		at.ccQueries += st.Queries()
		at.mu.Unlock()
	}
	return nil
}

func (at *algoTimes) add(dst *[]float64, v float64) {
	at.mu.Lock()
	*dst = append(*dst, v)
	at.mu.Unlock()
}

func (at *algoTimes) addMerge(typ string, v float64) {
	at.mu.Lock()
	at.merge[typ] = append(at.merge[typ], v)
	at.mu.Unlock()
}
