package streamkm

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	for _, algo := range Algos() {
		c := MustNew(algo, Config{K: 3, BucketSize: 40, Seed: 5})
		pts := mixturePoints(700, 9)
		for _, p := range pts {
			c.Add(p)
		}
		var buf bytes.Buffer
		if err := Save(&buf, c); err != nil {
			t.Fatalf("%s: save: %v", algo, err)
		}
		restored, err := Load(&buf, Config{Seed: 77})
		if err != nil {
			t.Fatalf("%s: load: %v", algo, err)
		}
		if restored.Name() != c.Name() {
			t.Fatalf("%s: restored as %q", algo, restored.Name())
		}
		if restored.PointsStored() != c.PointsStored() {
			t.Fatalf("%s: memory %d != %d", algo, restored.PointsStored(), c.PointsStored())
		}
		// Restored clusterer keeps working.
		for _, p := range mixturePoints(300, 10) {
			restored.Add(p)
		}
		if got := len(restored.Centers()); got != 3 {
			t.Fatalf("%s: %d centers after restore", algo, got)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a snapshot")), Config{}); err == nil {
		t.Fatal("accepted garbage")
	}
}

func TestSaveRejectsForeignClusterer(t *testing.T) {
	var c fakeClusterer
	var buf bytes.Buffer
	if err := Save(&buf, &c); err == nil {
		t.Fatal("accepted foreign clusterer")
	}
}

type fakeClusterer struct{}

func (*fakeClusterer) Add(Point)                  {}
func (*fakeClusterer) AddWeighted(Point, float64) {}
func (*fakeClusterer) Centers() []Point           { return nil }
func (*fakeClusterer) PointsStored() int          { return 0 }
func (*fakeClusterer) Name() string               { return "fake" }

func TestNewKMedian(t *testing.T) {
	for _, algo := range []Algo{AlgoCT, AlgoCC, AlgoRCC} {
		c, err := NewKMedian(algo, Config{K: 3, BucketSize: 50, QueryRuns: 2, QueryLloydIters: 8})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		pts := mixturePoints(2000, 11)
		for _, p := range pts {
			c.Add(p)
		}
		centers := c.Centers()
		if len(centers) != 3 {
			t.Fatalf("%s: %d centers", algo, len(centers))
		}
		cost := KMedianCost(pts, centers)
		// Unit-variance 2-d clusters: expected distance ~1.25/point.
		if cost > 3*float64(len(pts)) {
			t.Fatalf("%s: k-median cost %v too high", algo, cost)
		}
	}
	if _, err := NewKMedian(AlgoSequential, Config{K: 3}); err == nil {
		t.Fatal("k-median should reject Sequential")
	}
	if _, err := NewKMedian(AlgoCC, Config{K: 0}); err == nil {
		t.Fatal("k-median should validate config")
	}
}

func TestAddWeightedEquivalence(t *testing.T) {
	// Feeding a point with weight 3 must equal feeding it three times for
	// weight-linear algorithms (verified via coreset weight conservation).
	for _, algo := range Algos() {
		a := MustNew(algo, Config{K: 2, BucketSize: 10, Seed: 3})
		b := MustNew(algo, Config{K: 2, BucketSize: 10, Seed: 3})
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 200; i++ {
			p := Point{rng.NormFloat64(), rng.NormFloat64()}
			a.AddWeighted(p, 3)
			b.Add(p)
			b.Add(append(Point(nil), p...))
			b.Add(append(Point(nil), p...))
		}
		ca, cb := a.Centers(), b.Centers()
		if len(ca) != 2 || len(cb) != 2 {
			t.Fatalf("%s: centers %d/%d", algo, len(ca), len(cb))
		}
	}
}

func TestEvaluateQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var pts []Point
	blobs := [][2]float64{{0, 0}, {60, 60}}
	for i := 0; i < 500; i++ {
		b := blobs[rng.Intn(2)]
		pts = append(pts, Point{b[0] + rng.NormFloat64(), b[1] + rng.NormFloat64()})
	}
	good := Evaluate(pts, []Point{{0, 0}, {60, 60}}, 1)
	if good.Silhouette < 0.8 || good.EmptyClusters != 0 || good.K != 2 || good.N != 500 {
		t.Fatalf("good clustering scored %+v", good)
	}
	bad := Evaluate(pts, []Point{{0, 0}, {2, 2}}, 1)
	if bad.Silhouette >= good.Silhouette || bad.SSQ <= good.SSQ {
		t.Fatalf("bad clustering not worse: %+v vs %+v", bad, good)
	}
}

func TestKMedianCostHelper(t *testing.T) {
	pts := []Point{{3, 4}}
	centers := []Point{{0, 0}}
	if got := KMedianCost(pts, centers); got != 5 {
		t.Fatalf("KMedianCost = %v, want 5", got)
	}
}

func TestNewDecayed(t *testing.T) {
	c, err := NewDecayed(AlgoCC, Config{K: 2, BucketSize: 30}, 150)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 2500; i++ {
		c.Add(Point{rng.NormFloat64(), rng.NormFloat64()})
	}
	for i := 0; i < 800; i++ {
		c.Add(Point{80 + rng.NormFloat64(), 80 + rng.NormFloat64()})
	}
	centers := c.Centers()
	best := math.Inf(1)
	for _, ctr := range centers {
		d := (ctr[0]-80)*(ctr[0]-80) + (ctr[1]-80)*(ctr[1]-80)
		if d < best {
			best = d
		}
	}
	if best > 25 {
		t.Fatalf("decayed clusterer missed recent mass: %v", centers)
	}

	if _, err := NewDecayed(AlgoCC, Config{K: 2}, 0); err == nil {
		t.Fatal("accepted halfLife=0")
	}
	if _, err := NewDecayed(AlgoSequential, Config{K: 2}, 100); err == nil {
		t.Fatal("decay should reject Sequential")
	}
	if _, err := NewDecayed(AlgoCC, Config{K: 0}, 100); err == nil {
		t.Fatal("decay should validate config")
	}
}

// TestConcurrentAddToShards: one producer per shard through AddTo, then
// round-robin Add, both answer k centers of batch-comparable cost.
func TestConcurrentAddToShards(t *testing.T) {
	s, err := NewConcurrent(AlgoCC, 3, Config{K: 3, BucketSize: 40})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumShards() != 3 {
		t.Fatalf("NumShards = %d", s.NumShards())
	}
	pts := mixturePoints(3000, 13)
	var wg sync.WaitGroup
	for sh := 0; sh < 3; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			for i := sh; i < len(pts); i += 3 {
				s.AddTo(sh, pts[i])
			}
		}(sh)
	}
	wg.Wait()
	centers := s.Centers()
	if len(centers) != 3 {
		t.Fatalf("%d centers", len(centers))
	}
	cost := Cost(pts, centers)
	batch := Cost(pts, KMeansPlusPlus(pts, 3, 7, 3, 10))
	if cost > 4*batch {
		t.Fatalf("sharded cost %v vs batch %v", cost, batch)
	}
	if s.PointsStored() <= 0 {
		t.Fatal("PointsStored")
	}
	if s.Name() != "Sharded[3xCC]" {
		t.Fatalf("Name = %q", s.Name())
	}

	// Round-robin Add also works.
	s2, _ := NewConcurrent(AlgoCT, 2, Config{K: 2})
	for _, p := range mixturePoints(200, 14) {
		s2.Add(p)
	}
	if got := len(s2.Centers()); got != 2 {
		t.Fatalf("round-robin: %d centers", got)
	}

	if _, err := NewConcurrent(AlgoCC, 0, Config{K: 2}); err == nil {
		t.Fatal("accepted 0 shards")
	}
	if _, err := NewConcurrent(AlgoSequential, 2, Config{K: 2}); err == nil {
		t.Fatal("sharding should reject Sequential")
	}
	if _, err := NewConcurrent(AlgoCC, 2, Config{K: -1}); err == nil {
		t.Fatal("sharding should validate config")
	}
}
