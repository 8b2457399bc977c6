package parallel

import (
	"math"
	"math/rand"
	"sync"
	"testing"

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

// TestAddBatchToLeavesLanesQueryReady: a batch ends by warming its lane,
// so the next CoresetUnion finds every lane's coreset for [1, N] cached
// (an exact hit) instead of reducing on the query path — for CC and RCC
// lanes alike.
func TestAddBatchToLeavesLanesQueryReady(t *testing.T) {
	const k, m = 3, 20
	for _, algo := range []string{"CC", "RCC"} {
		t.Run(algo, func(t *testing.T) {
			var stats []func() core.CCStats
			s, err := NewSharded(2, k, 1, kmeans.FastOptions(), func(_ int, seed int64) *core.Driver {
				rng := rand.New(rand.NewSource(seed))
				var st core.Structure
				if algo == "CC" {
					cc := core.NewCC(2, m, coreset.KMeansPP{}, rng)
					stats, st = append(stats, cc.Stats), cc
				} else {
					rcc := core.NewRCC(2, m, coreset.KMeansPP{}, rng)
					stats, st = append(stats, rcc.Stats), rcc
				}
				return core.NewDriver(st, k, m, rng, kmeans.FastOptions())
			})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(2))
			for batch := 0; batch < 12; batch++ {
				lane := batch % 2
				wps := make([]geom.Weighted, 3*m+7) // several buckets plus a partial one
				for i := range wps {
					wps[i] = geom.Weighted{P: geom.Point{rng.NormFloat64(), rng.NormFloat64()}, W: 1}
				}
				s.AddBatchTo(lane, wps)
				before := stats[lane]()
				s.CoresetUnion()
				after := stats[lane]()
				if after.ExactHits != before.ExactHits+1 || after.MajorHits != before.MajorHits ||
					after.Fallbacks != before.Fallbacks {
					t.Fatalf("batch %d: query after AddBatchTo went %+v -> %+v, want one more exact hit only",
						batch, before, after)
				}
			}
		})
	}
}
