package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"streamkm/internal/datagen"
	"streamkm/internal/geom"
	"streamkm/internal/kmeans"
	"streamkm/internal/wire"
)

// inputs is everything a run sends and checks against, generated from the
// seed before any server starts.
type inputs struct {
	W     workload
	Pools [][][]float64 // per tenant: the points it cycles through
	Wire  [][][]byte    // per tenant, per body: the request body on the workload's wire
	Bin   [][][]byte    // per tenant, per body: the binary encoding (wire-layer timing)
	Ref   [][][]float64 // per tenant: the offline reference centers
}

// datasetSeed fixes the Covtype stand-in's mixture. The run seed picks
// which of its points each tenant gets and in what order: ingest cost
// depends on the mixture's geometry, so varying the mixture with the seed
// would swamp the differences the benchmark exists to measure.
const datasetSeed = 1

// makeInputs generates the Covtype stand-in, deals it out to tenant pools
// in a seeded order, pre-encodes every request body and computes each
// tenant's offline reference clustering (k-means++ with restarts plus
// Lloyd) on its pool.
func makeInputs(w workload, seed int64) (*inputs, error) {
	p := w.poolSize()
	ds := datagen.Covtype(p*len(w.Tenants), datasetSeed)
	perm := rand.New(rand.NewSource(seed))
	perm.Shuffle(len(ds.Points), func(i, j int) { ds.Points[i], ds.Points[j] = ds.Points[j], ds.Points[i] })
	in := &inputs{W: w}
	for t := range w.Tenants {
		pool := make([][]float64, p)
		for i := range pool {
			src := ds.Points[t*p+i]
			pt := make([]float64, len(src))
			for j, v := range src {
				// The binary wire carries float32; quantize so every wire and
				// the oracle see the same coordinates.
				pt[j] = wire.Quantize(v)
			}
			pool[i] = pt
		}
		in.Pools = append(in.Pools, pool)
		var wireBodies, binBodies [][]byte
		for b := 0; b < w.Bodies; b++ {
			pts := pool[b*w.Batch : (b+1)*w.Batch]
			bin, err := wire.EncodeBatch(pts, nil)
			if err != nil {
				return nil, fmt.Errorf("encode body: %w", err)
			}
			binBodies = append(binBodies, bin)
			if w.Wire == "binary" {
				wireBodies = append(wireBodies, bin)
			} else {
				wireBodies = append(wireBodies, ndjson(pts))
			}
		}
		in.Wire = append(in.Wire, wireBodies)
		in.Bin = append(in.Bin, binBodies)
		rng := rand.New(rand.NewSource(seed*1000 + int64(t)))
		ref, _ := kmeans.Run(rng, geom.Wrap(toGeom(pool)), k, kmeans.AccuracyOptions())
		in.Ref = append(in.Ref, fromGeom(ref))
	}
	return in, nil
}

func ndjson(pts [][]float64) []byte {
	var b []byte
	for _, p := range pts {
		b = append(b, '[')
		for j, v := range p {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		b = append(b, ']', '\n')
	}
	return b
}

func toGeom(pts [][]float64) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = geom.Point(p)
	}
	return out
}

func fromGeom(pts []geom.Point) [][]float64 {
	out := make([][]float64, len(pts))
	for i, p := range pts {
		out[i] = []float64(p)
	}
	return out
}

// refWeights returns, for every pool point, its weight in the tenant's
// reference set, given the sequence numbers of the tenant's acknowledged
// requests in send order: every point for concurrent tenants, points
// decay-weighted by arrival order for decayed ones, the last window_n
// points for windowed ones.
func refWeights(w workload, t tenant, seqs []int) []float64 {
	wts := make([]float64, w.poolSize())
	n := len(seqs) * w.Batch
	a := 0
	for _, s := range seqs {
		base := (s % w.Bodies) * w.Batch
		for i := 0; i < w.Batch; i++ {
			a++
			switch t.Type {
			case "concurrent":
				wts[base+i]++
			case "decayed":
				wts[base+i] += decayWeight(a, n, t.HalfLife)
			case "windowed":
				if int64(n-a) < t.WindowN {
					wts[base+i]++
				}
			}
		}
	}
	return wts
}

// ssq is the weighted k-means cost of pts against centers, written out
// here so the oracle does not depend on the kernels it helps to check.
func ssq(pts [][]float64, wts []float64, centers [][]float64) float64 {
	var total float64
	for i, p := range pts {
		if wts[i] == 0 {
			continue
		}
		best := math.Inf(1)
		for _, c := range centers {
			var d float64
			for j := range p {
				x := p[j] - c[j]
				d += x * x
			}
			best = math.Min(best, d)
		}
		total += wts[i] * best
	}
	return total
}

// percentile is the nearest-rank q-quantile of xs (0 when empty).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// beyond is how many samples lie above the nearest-rank q-quantile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(q*float64(n)))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }
