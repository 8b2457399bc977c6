package parallel

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"streamkm/internal/core"
	"streamkm/internal/coreset"
	"streamkm/internal/geom"
	"streamkm/internal/kmeans"
)

func newCCDriver(k, m int) func(int, int64) *core.Driver {
	return func(_ int, seed int64) *core.Driver {
		rng := rand.New(rand.NewSource(seed))
		return core.NewDriver(core.NewCC(2, m, coreset.KMeansPP{}, rng), k, m, rng, kmeans.FastOptions())
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewSharded(0, 3, 1, kmeans.FastOptions(), newCCDriver(3, 20)); err == nil {
		t.Fatal("accepted 0 shards")
	}
	if _, err := NewSharded(2, 0, 1, kmeans.FastOptions(), newCCDriver(3, 20)); err == nil {
		t.Fatal("accepted k=0")
	}
	if _, err := NewSharded(2, 3, 1, kmeans.FastOptions(),
		func(int, int64) *core.Driver { return nil }); err == nil {
		t.Fatal("accepted nil driver")
	}
}

func TestRoundRobinCoversShards(t *testing.T) {
	s, err := NewSharded(4, 2, 1, kmeans.FastOptions(), newCCDriver(2, 10))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 400; i++ {
		s.Add(geom.Point{rng.NormFloat64(), rng.NormFloat64()})
	}
	if s.Count() != 400 {
		t.Fatalf("Count = %d", s.Count())
	}
	// Weight must be conserved across the union.
	got := geom.TotalWeight(s.CoresetUnion())
	if math.Abs(got-400) > 1e-6*400 {
		t.Fatalf("union weight %v, want 400", got)
	}
	if s.NumShards() != 4 {
		t.Fatalf("NumShards = %d", s.NumShards())
	}
}

// TestConcurrentProducers drives one goroutine per shard plus a concurrent
// querier — the deployment shape the extension targets. Run with -race.
func TestConcurrentProducers(t *testing.T) {
	const (
		shards   = 4
		perShard = 2000
		k        = 3
	)
	s, err := NewSharded(shards, k, 3, kmeans.FastOptions(), newCCDriver(k, 40))
	if err != nil {
		t.Fatal(err)
	}
	blobs := []geom.Point{{0, 0}, {50, 0}, {0, 50}}
	var wg sync.WaitGroup
	for sh := 0; sh < shards; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + sh)))
			for i := 0; i < perShard; i++ {
				b := blobs[rng.Intn(len(blobs))]
				s.AddTo(sh, geom.Point{b[0] + rng.NormFloat64(), b[1] + rng.NormFloat64()})
			}
		}(sh)
	}
	// Concurrent queries while producers run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			_ = s.Centers()
		}
	}()
	wg.Wait()
	<-done

	if s.Count() != shards*perShard {
		t.Fatalf("Count = %d, want %d", s.Count(), shards*perShard)
	}
	centers := s.Centers()
	if len(centers) != k {
		t.Fatalf("got %d centers", len(centers))
	}
	for _, b := range blobs {
		d, _ := geom.MinSqDist(b, centers)
		if d > 25 {
			t.Fatalf("no center near %v: %v", b, centers)
		}
	}
}

// TestShardedMatchesSingleStreamQuality: splitting a stream across shards
// must not degrade clustering quality materially (Observation 1).
func TestShardedMatchesSingleStreamQuality(t *testing.T) {
	blobs := []geom.Point{{0, 0}, {60, 0}, {0, 60}, {60, 60}}
	gen := rand.New(rand.NewSource(4))
	pts := make([]geom.Point, 6000)
	for i := range pts {
		b := blobs[gen.Intn(len(blobs))]
		pts[i] = geom.Point{b[0] + gen.NormFloat64(), b[1] + gen.NormFloat64()}
	}
	all := geom.Wrap(pts)

	single := newCCDriver(4, 50)(0, 11)
	for _, p := range pts {
		single.Add(p)
	}
	singleCost := kmeans.Cost(all, single.Centers())

	s, err := NewSharded(4, 4, 11, kmeans.FastOptions(), newCCDriver(4, 50))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		s.AddTo(i%4, p)
	}
	shardCost := kmeans.Cost(all, s.Centers())

	if shardCost > 3*singleCost {
		t.Fatalf("sharded cost %v much worse than single-stream %v", shardCost, singleCost)
	}
}

func TestMemoryScalesWithShards(t *testing.T) {
	mk := func(p int) int {
		s, err := NewSharded(p, 2, 5, kmeans.FastOptions(), newCCDriver(2, 20))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(6))
		for i := 0; i < 2000; i++ {
			s.AddTo(i%p, geom.Point{rng.NormFloat64(), rng.NormFloat64()})
		}
		return s.PointsStored()
	}
	one, four := mk(1), mk(4)
	if four <= one {
		t.Fatalf("4 shards stored %d points, 1 shard %d; expected growth", four, one)
	}
}

func TestName(t *testing.T) {
	s, _ := NewSharded(3, 2, 1, kmeans.FastOptions(), newCCDriver(2, 10))
	if s.Name() != "Sharded[3xCC]" {
		t.Fatalf("Name = %q", s.Name())
	}
}

// TestQuiesceConsistentCut: with producers hammering every shard, the
// count Quiesce reports must equal exactly the points inside the drivers
// at that instant (the counter advances inside the shard critical
// sections). Run with -race.
func TestQuiesceConsistentCut(t *testing.T) {
	const producers, perProd = 4, 500
	s, err := NewSharded(producers, 2, 3, kmeans.FastOptions(), newCCDriver(2, 20))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(shard)))
			for i := 0; i < perProd; i++ {
				s.AddTo(shard, geom.Point{rng.NormFloat64(), rng.NormFloat64()})
			}
		}(p)
	}
	for i := 0; i < 10; i++ {
		err := s.Quiesce(func(drvs []*core.Driver, rr, count int64) error {
			var inDrivers int64
			for _, d := range drvs {
				inDrivers += d.Count()
			}
			if inDrivers != count {
				t.Errorf("quiesced count %d but drivers hold %d points", count, inDrivers)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if s.Count() != producers*perProd {
		t.Fatalf("final count %d, want %d", s.Count(), producers*perProd)
	}
}

// TestNewShardedFromState round-trips drivers through the restore
// constructor and rejects invalid skeletons.
func TestNewShardedFromState(t *testing.T) {
	s, err := NewSharded(2, 2, 3, kmeans.FastOptions(), newCCDriver(2, 20))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		s.Add(geom.Point{rng.NormFloat64(), rng.NormFloat64()})
	}
	var drvs []*core.Driver
	s.Quiesce(func(d []*core.Driver, rr, count int64) error {
		drvs = append(drvs, d...)
		return nil
	})
	r, err := NewShardedFromState(2, 9, kmeans.FastOptions(), drvs, 300, 300)
	if err != nil {
		t.Fatal(err)
	}
	if r.Count() != 300 || r.NumShards() != 2 || r.K() != 2 {
		t.Fatalf("restored count=%d shards=%d k=%d", r.Count(), r.NumShards(), r.K())
	}
	if r.PointsStored() != s.PointsStored() {
		t.Fatalf("restored memory %d, want %d", r.PointsStored(), s.PointsStored())
	}
	// The restored cursor continues round-robin where the original stopped.
	if got := r.NextShard(); got != 0 {
		t.Fatalf("NextShard after rr=300 over 2 shards = %d, want 0", got)
	}

	opt := kmeans.FastOptions()
	if _, err := NewShardedFromState(0, 1, opt, drvs, 0, 0); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := NewShardedFromState(2, 1, opt, nil, 0, 0); err == nil {
		t.Error("accepted zero shards")
	}
	if _, err := NewShardedFromState(2, 1, opt, []*core.Driver{nil}, 0, 0); err == nil {
		t.Error("accepted nil driver")
	}
	if _, err := NewShardedFromState(2, 1, opt, drvs, 0, -5); err == nil {
		t.Error("accepted negative count")
	}
}

// ccLanes builds a two-lane Sharded of CC, RCC or CT lanes and returns
// each lane's query counters (zero for CT, which keeps no cache).
func ccLanes(t *testing.T, algo string, k, m int) (*Sharded, []func() core.CCStats) {
	t.Helper()
	var stats []func() core.CCStats
	s, err := NewSharded(2, k, 1, kmeans.FastOptions(), func(_ int, seed int64) *core.Driver {
		rng := rand.New(rand.NewSource(seed))
		var st core.Structure
		switch algo {
		case "CC":
			cc := core.NewCC(2, m, coreset.KMeansPP{}, rng)
			stats, st = append(stats, cc.Stats), cc
		case "RCC":
			rcc := core.NewRCC(2, m, coreset.KMeansPP{}, rng)
			stats, st = append(stats, rcc.Stats), rcc
		default:
			stats, st = append(stats, func() core.CCStats { return core.CCStats{} }), core.NewCT(2, m, coreset.KMeansPP{}, rng)
		}
		return core.NewDriver(st, k, m, rng, kmeans.FastOptions())
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, stats
}

func gaussianBatch(rng *rand.Rand, n int, w float64) []geom.Weighted {
	wps := make([]geom.Weighted, n)
	for i := range wps {
		wps[i] = geom.Weighted{P: geom.Point{rng.NormFloat64(), rng.NormFloat64()}, W: w}
	}
	return wps
}

// lockedUnion gathers every lane's driver View under Quiesce: the exact
// union the published views must reproduce.
func lockedUnion(t *testing.T, s *Sharded) []geom.Weighted {
	t.Helper()
	var union []geom.Weighted
	if err := s.Quiesce(func(drvs []*core.Driver, _, _ int64) error {
		for _, d := range drvs {
			union = append(union, d.View()...)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return union
}

func sameBits(a, b []geom.Weighted) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].W) != math.Float64bits(b[i].W) || len(a[i].P) != len(b[i].P) {
			return false
		}
		for j := range a[i].P {
			if math.Float64bits(a[i].P[j]) != math.Float64bits(b[i].P[j]) {
				return false
			}
		}
	}
	return true
}

// TestAddBatchToPublishesLanesUnion: a batch ends by publishing its lane's
// driver View, so CoresetUnion after AddBatchTo equals the views gathered
// under the lane locks bit for bit and runs no query on any lane (CCStats
// stay unchanged) — for CC, RCC and CT lanes alike. A point fed with
// AddWeightedTo withdraws its lane's view; the next gather rebuilds it.
func TestAddBatchToPublishesLanesUnion(t *testing.T) {
	const k, m = 3, 20
	for _, algo := range []string{"CC", "RCC", "CT"} {
		t.Run(algo, func(t *testing.T) {
			s, stats := ccLanes(t, algo, k, m)
			rng := rand.New(rand.NewSource(2))
			for round := 0; round < 6; round++ {
				for lane := 0; lane < 2; lane++ {
					s.AddBatchTo(lane, gaussianBatch(rng, 3*m+7, 1)) // several buckets plus a partial one
				}
				before := []core.CCStats{stats[0](), stats[1]()}
				got := s.CoresetUnion()
				if after := []core.CCStats{stats[0](), stats[1]()}; !reflect.DeepEqual(after, before) {
					t.Fatalf("round %d: gather after AddBatchTo ran lane queries: %+v -> %+v", round, before, after)
				}
				if want := lockedUnion(t, s); !sameBits(got, want) {
					t.Fatalf("round %d: published union (%d points) differs from the locked union (%d points)",
						round, len(got), len(want))
				}
				if round == 3 {
					s.AddWeightedTo(1, geom.Weighted{P: geom.Point{9, 9}, W: 1})
					if got, want := s.CoresetUnion(), lockedUnion(t, s); !sameBits(got, want) {
						t.Fatalf("after a per-point add: gathered %d points, locked union has %d", len(got), len(want))
					}
				}
			}
		})
	}
}

// TestGatherDoesNotWaitForLaneLocks: with every lane's view published,
// CoresetUnion and Centers return while Quiesce holds every lane lock.
func TestGatherDoesNotWaitForLaneLocks(t *testing.T) {
	s, _ := ccLanes(t, "CC", 3, 20)
	rng := rand.New(rand.NewSource(3))
	for lane := 0; lane < 2; lane++ {
		s.AddBatchTo(lane, gaussianBatch(rng, 75, 1))
	}
	err := s.Quiesce(func([]*core.Driver, int64, int64) error {
		done := make(chan int)
		go func() {
			n := len(s.CoresetUnion())
			s.Centers()
			done <- n
		}()
		select {
		case n := <-done:
			if n == 0 {
				t.Error("gathered an empty union")
			}
		case <-time.After(10 * time.Second):
			t.Error("CoresetUnion/Centers still blocked on the lane locks after 10s")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGatherCoversCountUnderConcurrentIngest races batch producers, a
// per-point producer and gatherers. Every gather's total weight must be
// at least the count read before it: a view is published before the
// count advances, and a per-point add withdraws its lane's view first.
// All weights are small integers, so the reduces keep total weight
// exact. Run with -race -count=10.
func TestGatherCoversCountUnderConcurrentIngest(t *testing.T) {
	for _, algo := range []string{"CC", "RCC"} {
		t.Run(algo, func(t *testing.T) {
			s, _ := ccLanes(t, algo, 3, 20)
			const batches, singles = 30, 300
			var wg sync.WaitGroup
			for lane := 0; lane < 2; lane++ {
				wg.Add(1)
				go func(lane int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(10 + lane)))
					for b := 0; b < batches; b++ {
						s.AddBatchTo(lane, gaussianBatch(rng, 37, 1))
					}
				}(lane)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(12))
				for i := 0; i < singles; i++ {
					s.AddWeighted(geom.Weighted{P: geom.Point{rng.NormFloat64(), rng.NormFloat64()}, W: 2})
				}
			}()
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
						n := s.Count()
						if w := geom.TotalWeight(s.CoresetUnion()); w < float64(n) {
							t.Errorf("gathered weight %v after reading count %d", w, n)
							return
						}
						s.Centers()
					}
				}()
			}
			wg.Wait()
			close(stop)
			gathers.Wait()
			want := float64(2*batches*37 + 2*singles)
			if w := geom.TotalWeight(s.CoresetUnion()); w != want {
				t.Fatalf("final union weight %v, want %v", w, want)
			}
		})
	}
}
