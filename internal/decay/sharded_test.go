package decay

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"streamkm/internal/core"
	"streamkm/internal/coreset"
	"streamkm/internal/geom"
	"streamkm/internal/kmeans"
)

func ccFactory(k, m int) func(lane int, seed int64) *core.Driver {
	return func(_ int, seed int64) *core.Driver {
		rng := rand.New(rand.NewSource(seed))
		cc := core.NewCC(2, m, coreset.KMeansPP{}, rng)
		return core.NewDriver(cc, k, m, rng, kmeans.FastOptions())
	}
}

func newShardedT(t testing.TB, p int, lambda float64) *Sharded {
	t.Helper()
	sh, err := NewSharded(p, 2, lambda, 1, kmeans.FastOptions(), ccFactory(2, 25))
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

func unitBatch(pts []geom.Point) []geom.Weighted {
	out := make([]geom.Weighted, len(pts))
	for i, p := range pts {
		out[i] = geom.Weighted{P: p, W: 1}
	}
	return out
}

func TestShardedValidation(t *testing.T) {
	if _, err := NewSharded(0, 2, 0.01, 1, kmeans.FastOptions(), ccFactory(2, 25)); err == nil {
		t.Error("accepted zero lanes")
	}
	if _, err := NewSharded(2, 0, 0.01, 1, kmeans.FastOptions(), ccFactory(2, 25)); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := NewSharded(2, 2, 0.01, 1, kmeans.FastOptions(),
		func(int, int64) *core.Driver { return nil }); err == nil {
		t.Error("accepted nil lane driver")
	}
}

// TestShardedWeightMatchesSingleLane: the sharded pipeline's merged
// coreset carries the same total decayed weight as a single-lane replay
// of the identical arrival sequence — the union-of-coresets invariant,
// measured on the quantity decay actually controls.
func TestShardedWeightMatchesSingleLane(t *testing.T) {
	lambda := math.Ln2 / 300
	multi := newShardedT(t, 3, lambda)
	single := newShardedT(t, 1, lambda)
	rng := rand.New(rand.NewSource(5))
	for b := 0; b < 30; b++ {
		pts := make([]geom.Point, 40)
		for i := range pts {
			pts[i] = geom.Point{rng.NormFloat64(), rng.NormFloat64() + float64(10*(b%2))}
		}
		wps := unitBatch(pts)
		multi.AddBatch(wps)
		single.AddBatch(wps)
	}
	if multi.Count() != single.Count() || multi.Count() != 1200 {
		t.Fatalf("counts %d / %d, want 1200", multi.Count(), single.Count())
	}
	sum := func(cs []geom.Weighted) float64 {
		total := 0.0
		for _, wp := range cs {
			total += wp.W
		}
		return total
	}
	wm, ws := sum(multi.Coreset()), sum(single.Coreset())
	if d := math.Abs(wm-ws) / math.Max(wm, ws); d > 1e-6 {
		t.Fatalf("total decayed weight diverges: sharded %v, single %v (rel %v)", wm, ws, d)
	}
}

// TestShardedRecentPointsDominate mirrors the single-lane drift test
// through the sharded path: after a shift, centers follow the new mass.
func TestShardedRecentPointsDominate(t *testing.T) {
	sh := newShardedT(t, 4, math.Ln2/200)
	rng := rand.New(rand.NewSource(2))
	batch := func(cx, cy float64, n int) []geom.Weighted {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{cx + rng.NormFloat64(), cy + rng.NormFloat64()}
		}
		return unitBatch(pts)
	}
	for i := 0; i < 40; i++ {
		sh.AddBatch(batch(0, 0, 100))
	}
	for i := 0; i < 12; i++ {
		sh.AddBatch(batch(100, 100, 100))
	}
	centers := sh.Centers()
	d, _ := geom.MinSqDist(geom.Point{100, 100}, centers)
	if d > 25 {
		t.Fatalf("no center near the recent mass (sqdist %v): %v", d, centers)
	}
}

// TestShardedRescaleAcrossThreshold: a fast decay rate pushes raw
// arrival weights past the rescale threshold many times over; the lanes
// re-reference independently and the merged coreset must still be
// finite, positive and dominated by the newest points.
func TestShardedRescaleAcrossThreshold(t *testing.T) {
	sh := newShardedT(t, 3, 1) // weight doubles ~every 0.7 arrivals: rescale storms
	rng := rand.New(rand.NewSource(3))
	for b := 0; b < 50; b++ {
		pts := make([]geom.Point, 30)
		for i := range pts {
			pts[i] = geom.Point{float64(b) + rng.NormFloat64()*0.01, 0}
		}
		sh.AddBatch(unitBatch(pts))
	}
	cs := sh.Coreset()
	if len(cs) == 0 {
		t.Fatal("empty coreset after rescale storm")
	}
	total := 0.0
	for _, wp := range cs {
		if math.IsInf(wp.W, 0) || math.IsNaN(wp.W) || wp.W < 0 {
			t.Fatalf("non-finite or negative merged weight %v", wp.W)
		}
		total += wp.W
	}
	if total <= 0 {
		t.Fatalf("total merged weight %v, want > 0", total)
	}
	centers := sh.Centers()
	d, _ := geom.MinSqDist(geom.Point{49, 0}, centers)
	if d > 4 {
		t.Fatalf("centers ignore the newest arrivals (sqdist %v): %v", d, centers)
	}
}

// TestShardedWallClock: under AddBatchWall, age is wall time, not
// arrival counts — a huge old cohort observed long before a small new
// one carries ~no weight.
func TestShardedWallClock(t *testing.T) {
	sh := newShardedT(t, 3, math.Ln2/10) // half-life 10 seconds
	rng := rand.New(rand.NewSource(4))
	batch := func(cx float64, n int) []geom.Weighted {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{cx + rng.NormFloat64(), 0}
		}
		return unitBatch(pts)
	}
	for i := 0; i < 20; i++ {
		sh.AddBatchWall(0, batch(0, 100))
	}
	for i := 0; i < 4; i++ {
		sh.AddBatchWall(1000, batch(500, 50)) // 100 half-lives later
	}
	if sh.Count() != 2200 {
		t.Fatalf("count %d, want 2200 (arrival indices still consumed)", sh.Count())
	}
	centers := sh.Centers()
	d, _ := geom.MinSqDist(geom.Point{500, 0}, centers)
	if d > 25 {
		t.Fatalf("wall-clock decay did not bury the old cohort (sqdist %v): %v", d, centers)
	}
}

// TestShardedQuiesceRoundTrip: a quiesced cut reassembles via
// NewShardedFromShards with counts and query behavior intact, and a
// lane whose rate disagrees with the stream's is rejected.
func TestShardedQuiesceRoundTrip(t *testing.T) {
	lambda := math.Ln2 / 150
	sh := newShardedT(t, 3, lambda)
	rng := rand.New(rand.NewSource(6))
	for b := 0; b < 10; b++ {
		pts := make([]geom.Point, 35)
		for i := range pts {
			pts[i] = geom.Point{rng.NormFloat64(), rng.NormFloat64()}
		}
		sh.AddBatch(unitBatch(pts))
	}
	var rebuilt *Sharded
	err := sh.Quiesce(func(shards []*Shard, clock, rr, count int64) error {
		if count != 350 || clock != 350 {
			t.Fatalf("quiesce cursors clock=%d count=%d, want 350/350", clock, count)
		}
		var err error
		rebuilt, err = NewShardedFromShards(2, shards[0].Lambda(), 1, kmeans.FastOptions(),
			shards, clock, rr, count)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Count() != 350 || rebuilt.NumLanes() != 3 {
		t.Fatalf("rebuilt count %d lanes %d", rebuilt.Count(), rebuilt.NumLanes())
	}
	if got := len(rebuilt.Centers()); got != 2 {
		t.Fatalf("%d centers, want 2", got)
	}

	// Lane/stream rate mismatch is refused.
	err = sh.Quiesce(func(shards []*Shard, clock, rr, count int64) error {
		_, err := NewShardedFromShards(2, lambda*2, 1, kmeans.FastOptions(), shards, clock, rr, count)
		return err
	})
	if err == nil {
		t.Fatal("NewShardedFromShards accepted a lane rate mismatch")
	}
}

// TestShardedConcurrentProducers hammers the sequencing path from
// several goroutines while querying; run with -race. Drained, the
// applied count equals every batch acked.
func TestShardedConcurrentProducers(t *testing.T) {
	sh := newShardedT(t, 4, math.Ln2/500)
	const producers = 4
	const batches = 25
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(10 + p)))
			for b := 0; b < batches; b++ {
				pts := make([]geom.Point, 20)
				for i := range pts {
					pts[i] = geom.Point{rng.NormFloat64(), rng.NormFloat64()}
				}
				sh.AddBatch(unitBatch(pts))
			}
		}(p)
	}
	for i := 0; i < 10; i++ {
		_ = sh.Centers()
	}
	wg.Wait()
	if want := int64(producers * batches * 20); sh.Count() != want || sh.Clock() != want {
		t.Fatalf("count %d clock %d, want %d", sh.Count(), sh.Clock(), want)
	}
}

func TestShardedName(t *testing.T) {
	sh := newShardedT(t, 3, 0.01)
	if name := sh.Name(); !strings.HasPrefix(name, "Decay[3x") {
		t.Fatalf("Name() = %q", name)
	}
}

// TestShardedGatherDoesNotWaitForLaneLocks: once every lane has
// published a view, Coreset and Centers return while Quiesce holds every
// lane lock.
func TestShardedGatherDoesNotWaitForLaneLocks(t *testing.T) {
	sh := newShardedT(t, 3, math.Ln2/300)
	rng := rand.New(rand.NewSource(8))
	for b := 0; b < 6; b++ {
		pts := make([]geom.Point, 60)
		for i := range pts {
			pts[i] = geom.Point{rng.NormFloat64(), rng.NormFloat64()}
		}
		sh.AddBatch(unitBatch(pts))
	}
	err := sh.Quiesce(func([]*Shard, int64, int64, int64) error {
		done := make(chan int)
		go func() {
			n := len(sh.Coreset())
			sh.Centers()
			done <- n
		}()
		select {
		case n := <-done:
			if n == 0 {
				t.Error("gathered an empty union")
			}
		case <-time.After(10 * time.Second):
			t.Error("Coreset/Centers still blocked on the lane locks after 10s")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShardedGatherCoversCountUnderIngest races AddBatch and AddBatchWall
// producers against gatherers: every gather covers at least the count
// read before it, and a drained gather covers every arrival. Run with
// -race -count=10.
func TestShardedGatherCoversCountUnderIngest(t *testing.T) {
	for _, wall := range []bool{false, true} {
		t.Run(fmt.Sprintf("wall=%v", wall), func(t *testing.T) {
			sh := newShardedT(t, 3, math.Ln2/400)
			const producers, batches, size = 3, 20, 23
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(30 + p)))
					for b := 0; b < batches; b++ {
						pts := make([]geom.Point, size)
						for i := range pts {
							pts[i] = geom.Point{rng.NormFloat64(), rng.NormFloat64()}
						}
						if wall {
							sh.AddBatchWall(float64(b), unitBatch(pts))
						} else {
							sh.AddBatch(unitBatch(pts))
						}
					}
				}(p)
			}
			stop := make(chan struct{})
			var gathers sync.WaitGroup
			for g := 0; g < 2; g++ {
				gathers.Add(1)
				go func() {
					defer gathers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						n := sh.Count()
						if _, count := sh.Gather(); count < n {
							t.Errorf("gather covers %d arrivals after reading count %d", count, n)
							return
						}
						sh.Centers()
					}
				}()
			}
			wg.Wait()
			close(stop)
			gathers.Wait()
			if _, count := sh.Gather(); count != producers*batches*size {
				t.Fatalf("drained gather covers %d arrivals, want %d", count, producers*batches*size)
			}
		})
	}
}

// TestPublishedViewSurvivesRenormalization: a lane's published view is
// its own copy of the weights, so renormalizing the lane (advanceRef,
// which rescales the tree, the coreset cache and the partial bucket in
// place) leaves every bit of it unchanged.
func TestPublishedViewSurvivesRenormalization(t *testing.T) {
	sh := newShardedT(t, 1, 1)
	rng := rand.New(rand.NewSource(9))
	batch := func(n int) []geom.Weighted {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{rng.NormFloat64(), rng.NormFloat64()}
		}
		return unitBatch(pts)
	}
	// 7 buckets of 25 plus 3 points: a cached prefix [1, 6], the tree's
	// bucket at level 0 and a partial bucket.
	sh.AddBatchWall(0, batch(7*25+3))
	v := sh.views[0].Load()
	if len(v.pts) != 25+25+3 {
		t.Fatalf("view holds %d points, want 53", len(v.pts))
	}
	saved := make([]geom.Weighted, len(v.pts))
	for i, wp := range v.pts {
		saved[i] = geom.Weighted{P: append(geom.Point(nil), wp.P...), W: wp.W}
	}
	laneRef := func() (refT float64) {
		sh.lanes.View(0, func(s *Shard) { refT = s.RefT() })
		return refT
	}
	refT := laneRef()
	sh.AddBatchWall(1e4, batch(2)) // lambda·Δt = 1e4: several rescale steps
	if got := laneRef(); got == refT {
		t.Fatalf("reference time stayed at %v: the lane did not renormalize", got)
	}
	if sh.views[0].Load() == v {
		t.Fatal("the renormalizing batch did not publish a new view")
	}
	for i, wp := range v.pts {
		if math.Float64bits(wp.W) != math.Float64bits(saved[i].W) {
			t.Fatalf("point %d: published weight %v changed to %v", i, saved[i].W, wp.W)
		}
		for j := range wp.P {
			if math.Float64bits(wp.P[j]) != math.Float64bits(saved[i].P[j]) {
				t.Fatalf("point %d: published coordinate changed", i)
			}
		}
	}
}

// TestOnePointBatchClearsView: a one-point batch (the path weighted
// points take) clears its lane's view instead of publishing one, and the
// next gather builds under the lane lock exactly the view a batch would
// have published.
func TestOnePointBatchClearsView(t *testing.T) {
	sh := newShardedT(t, 1, math.Ln2/300)
	rng := rand.New(rand.NewSource(10))
	pts := make([]geom.Point, 7*25)
	for i := range pts {
		pts[i] = geom.Point{rng.NormFloat64(), rng.NormFloat64()}
	}
	sh.AddBatch(unitBatch(pts[:len(pts)-1]))
	sh.AddBatch([]geom.Weighted{{P: pts[len(pts)-1], W: 2.5}}) // completes bucket 7
	if sh.views[0].Load() != nil {
		t.Fatal("a one-point batch published a view")
	}
	var want []geom.Weighted
	sh.lanes.View(0, func(s *Shard) { want = s.Driver().View() })
	got, count := sh.Gather()
	if count != int64(len(pts)) || len(got) != len(want) {
		t.Fatalf("gather of %d points covers %d arrivals, want %d points covering %d", len(got), count, len(want), len(pts))
	}
	for i := range got {
		if math.Float64bits(got[i].W) != math.Float64bits(want[i].W) || !got[i].P.Equal(want[i].P) {
			t.Fatalf("gathered point %d = %v, the lane's view has %v", i, got[i], want[i])
		}
	}
	if sh.views[0].Load() == nil {
		t.Fatal("the gather did not publish the view it built")
	}
}

// countingBuilder is coreset.KMeansPP counting its builds and the points
// they reduced.
type countingBuilder struct{ builds, points int }

func (b *countingBuilder) Name() string { return coreset.KMeansPP{}.Name() }

func (b *countingBuilder) Build(rng *rand.Rand, pts []geom.Weighted, m int) []geom.Weighted {
	b.builds++
	b.points += len(pts)
	return coreset.KMeansPP{}.Build(rng, pts, m)
}

// TestBatchWorkIgnoresGathers: what a batch costs its lane does not
// depend on the queries served in between. Two pipelines with the same
// seed take the same batches; one is gathered and queried after every
// batch, the other only at the end. After every batch their builders
// have made the same builds over the same points, and at the end their
// unions agree bit for bit, so a refresh neither reduces on a lane nor
// leaves a lane a different cache for the next batch to build on.
func TestBatchWorkIgnoresGathers(t *testing.T) {
	const k, m, lanes = 3, 20, 2
	pipeline := func(b *countingBuilder) *Sharded {
		sh, err := NewSharded(lanes, k, math.Ln2/300, 1, kmeans.FastOptions(), func(_ int, seed int64) *core.Driver {
			rng := rand.New(rand.NewSource(seed))
			return core.NewDriver(core.NewCC(2, m, b, rng), k, m, rng, kmeans.FastOptions())
		})
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	var quietB, busyB countingBuilder
	quiet, busy := pipeline(&quietB), pipeline(&busyB)
	rng := rand.New(rand.NewSource(12))
	for b := 0; b < 80; b++ {
		pts := make([]geom.Point, 2+rng.Intn(5*m)) // completes 0 to 5 buckets
		for i := range pts {
			pts[i] = geom.Point{rng.NormFloat64(), rng.NormFloat64()}
		}
		quiet.AddBatch(unitBatch(pts))
		busy.AddBatch(unitBatch(pts))
		busy.Coreset()
		busy.Centers()
		if quietB != busyB {
			t.Fatalf("batch %d: %+v builds without gathers, %+v with them", b, quietB, busyB)
		}
	}
	if got, want := busy.Coreset(), quiet.Coreset(); len(got) != len(want) {
		t.Fatalf("unions of %d and %d points", len(got), len(want))
	} else {
		for i := range got {
			if math.Float64bits(got[i].W) != math.Float64bits(want[i].W) || !got[i].P.Equal(want[i].P) {
				t.Fatalf("point %d: %v with gathers, %v without", i, got[i], want[i])
			}
		}
	}
}
