package streamkm

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamkm/internal/core"
	"streamkm/internal/geom"
)

func TestConcurrentBasic(t *testing.T) {
	pts := mixturePoints(4000, 10)
	c := MustNewConcurrent(AlgoCC, 4, Config{K: 3})
	if c.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", c.NumShards())
	}
	if c.K() != 3 {
		t.Fatalf("K = %d, want 3", c.K())
	}
	for i := 0; i < len(pts); i += 100 {
		c.AddBatch(pts[i : i+100])
	}
	if c.Count() != int64(len(pts)) {
		t.Fatalf("Count = %d, want %d", c.Count(), len(pts))
	}
	centers := c.Centers()
	if len(centers) != 3 {
		t.Fatalf("%d centers, want 3", len(centers))
	}
	batch := Cost(pts, KMeansPlusPlus(pts, 3, 11, 5, 20))
	if cost := Cost(pts, centers); cost > 3*batch {
		t.Errorf("sharded cost %v vs batch %v", cost, batch)
	}
	if c.PointsStored() <= 0 {
		t.Errorf("PointsStored = %d", c.PointsStored())
	}
	if c.Name() != "Sharded[4xCC]" {
		t.Errorf("Name = %q", c.Name())
	}
}

func TestConcurrentRejectsNonCoresetAlgos(t *testing.T) {
	for _, algo := range []Algo{AlgoOnlineCC, AlgoSequential, "Bogus"} {
		if _, err := NewConcurrent(algo, 2, Config{K: 3}); err == nil {
			t.Errorf("%s: expected error", algo)
		}
	}
	if _, err := NewConcurrent(AlgoCC, 0, Config{K: 3}); err == nil {
		t.Error("0 shards: expected error")
	}
	if _, err := NewConcurrent(AlgoCC, 2, Config{K: 0}); err == nil {
		t.Error("K=0: expected error")
	}
}

func TestMustNewConcurrentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNewConcurrent(AlgoSequential, 2, Config{K: 3})
}

// TestConcurrentCacheFastPath pins the OnlineCC-style serving behavior
// on every lane-backend variant: repeated queries against an unchanged
// (or barely-grown) stream are answered from the cache, and growth past
// Alpha invalidates it.
func TestConcurrentCacheFastPath(t *testing.T) {
	pts := mixturePoints(2000, 11)
	for name, spec := range laneSpecs() {
		t.Run(name, func(t *testing.T) {
			b, err := Open(spec, Config{Alpha: 1.5})
			if err != nil {
				t.Fatal(err)
			}
			c := laneBackendOf(t, b)
			c.AddBatch(pts[:1000])

			first := c.Centers()
			if hits, misses := c.CacheStats(); hits != 0 || misses != 1 {
				t.Fatalf("after first query: hits=%d misses=%d", hits, misses)
			}
			second := c.Centers() // unchanged stream: must be a hit
			if hits, _ := c.CacheStats(); hits != 1 {
				t.Fatalf("second query on unchanged stream did not hit the cache")
			}
			for i := range first {
				for j := range first[i] {
					if first[i][j] != second[i][j] {
						t.Fatal("cached centers differ from computed centers")
					}
				}
			}
			// A caller mutating its copy must not corrupt the cache.
			second[0][0] = 1e9
			third := c.Centers()
			if third[0][0] == 1e9 {
				t.Fatal("cache entry aliased into caller's slice")
			}

			c.AddBatch(pts[1000:1400]) // 1400 <= 1.5*1000: still fresh
			c.Centers()
			if _, misses := c.CacheStats(); misses != 1 {
				t.Fatalf("query within staleness bound recomputed (misses=%d)", misses)
			}
			c.AddBatch(pts[1400:2000]) // 2000 > 1.5*1000: stale
			c.Centers()
			if _, misses := c.CacheStats(); misses != 2 {
				t.Fatalf("query past staleness bound did not recompute (misses=%d)", misses)
			}
		})
	}
}

func TestConcurrentRefreshBypassesCache(t *testing.T) {
	for name, spec := range laneSpecs() {
		t.Run(name, func(t *testing.T) {
			spec.K = 2
			b, err := Open(spec, Config{BucketSize: 20})
			if err != nil {
				t.Fatal(err)
			}
			c := laneBackendOf(t, b)
			c.AddBatch(mixturePoints(200, 12))
			c.Centers()
			hits0, _ := c.CacheStats()
			if got := c.Refresh(); len(got) != 2 {
				t.Fatalf("Refresh returned %d centers", len(got))
			}
			// Refresh installs a new entry; the next query must hit it.
			c.Centers()
			if hits, _ := c.CacheStats(); hits != hits0+1 {
				t.Fatalf("query after Refresh missed the cache")
			}
		})
	}
}

func TestConcurrentEmptyStream(t *testing.T) {
	for name, spec := range laneSpecs() {
		t.Run(name, func(t *testing.T) {
			spec.K = 5
			if spec.Algo != "" {
				spec.Algo = AlgoRCC
			}
			c, err := Open(spec, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if got := c.Centers(); len(got) != 0 {
				t.Fatalf("empty stream returned %d centers", len(got))
			}
			// The empty answer must not be served once points exist.
			c.AddBatch(mixturePoints(500, 13))
			if got := c.Centers(); len(got) != 5 {
				t.Fatalf("after ingest got %d centers, want 5", len(got))
			}
		})
	}
}

// TestCentersSingleFlight: queries that find the cache stale at once
// share one recomputation. Run with -race -count=10.
func TestCentersSingleFlight(t *testing.T) {
	const queries = 8
	for name, spec := range laneSpecs() {
		t.Run(name, func(t *testing.T) {
			b, err := Open(spec, Config{BucketSize: 20, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			c := laneBackendOf(t, b)
			c.AddBatch(mixturePoints(100, 14))
			c.Centers()
			c.AddBatch(mixturePoints(1000, 15)) // the entry is now stale
			var recomputes atomic.Int64
			c.refreshed = func([]geom.Weighted, *centersSnapshot) { recomputes.Add(1) }
			hits0, misses0 := c.CacheStats()

			start := make(chan struct{})
			got := make([][]Point, queries)
			var wg sync.WaitGroup
			for q := range got {
				wg.Add(1)
				go func(q int) {
					defer wg.Done()
					<-start
					got[q] = c.Centers()
				}(q)
			}
			close(start)
			wg.Wait()

			if n := recomputes.Load(); n != 1 {
				t.Fatalf("%d recomputations for %d concurrent stale queries, want 1", n, queries)
			}
			for q := range got {
				if !reflect.DeepEqual(got[q], got[0]) {
					t.Fatalf("query %d got %v, query 0 got %v", q, got[q], got[0])
				}
			}
			if hits, misses := c.CacheStats(); hits+misses != hits0+misses0+queries {
				t.Fatalf("hits+misses rose from %d to %d, want +%d", hits0+misses0, hits+misses, queries)
			}
		})
	}
}

// TestConcurrentParallelIngestAndQuery drives N producer goroutines
// through Add/AddTo/AddBatch while queriers hammer Centers — the
// workload the type exists for. Run with -race.
func TestConcurrentParallelIngestAndQuery(t *testing.T) {
	const producers = 4
	const perProducer = 1500
	c := MustNewConcurrent(AlgoCC, producers, Config{K: 3, BucketSize: 30})

	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pts := mixturePoints(perProducer, int64(100+w))
			for i, p := range pts {
				switch i % 3 {
				case 0:
					c.AddTo(w, p)
				case 1:
					c.Add(p)
				default:
					c.AddWeighted(p, 2)
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var qwg sync.WaitGroup
	for q := 0; q < 3; q++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Centers()
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	qwg.Wait()

	if c.Count() != producers*perProducer {
		t.Fatalf("Count = %d, want %d", c.Count(), producers*perProducer)
	}
	if got := c.Refresh(); len(got) != 3 {
		t.Fatalf("final query: %d centers, want 3", len(got))
	}
}

// TestConcurrentRefreshDoesNotWaitForLaneLocks: batch-fed lanes publish
// their summaries, so Refresh recomputes while Quiesce holds every lane
// lock instead of waiting for it.
func TestConcurrentRefreshDoesNotWaitForLaneLocks(t *testing.T) {
	c := MustNewConcurrent(AlgoCC, 2, Config{K: 3, BucketSize: 20})
	pts := mixturePoints(400, 11)
	for i := 0; i < len(pts); i += 100 {
		c.AddBatch(pts[i : i+100])
	}
	err := c.sh.Quiesce(func([]*core.Driver, int64, int64) error {
		done := make(chan []Point)
		go func() { done <- c.Refresh() }()
		select {
		case got := <-done:
			if len(got) != 3 {
				t.Errorf("Refresh under Quiesce: %d centers, want 3", len(got))
			}
		case <-time.After(10 * time.Second):
			t.Error("Refresh still blocked on the lane locks after 10s")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentRefreshCoversCount races AddBatch (AddBatchTo),
// AddWeighted and Refresh. A gather's total weight must be at least the
// count read before it, and the final union holds every point's weight.
// Run with -race -count=10.
func TestConcurrentRefreshCoversCount(t *testing.T) {
	c := MustNewConcurrent(AlgoCC, 2, Config{K: 3, BucketSize: 20})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		pts := mixturePoints(2000, 12)
		for i := 0; i < len(pts); i += 50 {
			c.AddBatch(pts[i : i+50])
		}
	}()
	go func() {
		defer wg.Done()
		for _, p := range mixturePoints(300, 13) {
			c.AddWeighted(p, 2)
		}
	}()
	stop := make(chan struct{})
	var qwg sync.WaitGroup
	for q := 0; q < 2; q++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := c.sh.Count()
				if w := geom.TotalWeight(c.sh.CoresetUnion()); w < float64(n) {
					t.Errorf("gathered weight %v after reading count %d", w, n)
					return
				}
				c.Refresh()
			}
		}()
	}
	wg.Wait()
	close(stop)
	qwg.Wait()
	if w := geom.TotalWeight(c.sh.CoresetUnion()); w != 2000+2*300 {
		t.Fatalf("final union weight %v, want %d", w, 2000+2*300)
	}
}

// TestRefreshStampsTheCountItsUnionCovers races unit-weight AddBatch
// producers against Refresh: every cache entry's count equals the total
// weight of the union its centers were computed from, exactly, so cache
// freshness no longer depends on the order in which a batch publishes its
// view and advances the count. Run with -race -count=10.
func TestRefreshStampsTheCountItsUnionCovers(t *testing.T) {
	c := MustNewConcurrent(AlgoCC, 2, Config{K: 3, BucketSize: 20})
	var entries atomic.Int64
	c.refreshed = func(union []geom.Weighted, entry *centersSnapshot) {
		entries.Add(1)
		if w := geom.TotalWeight(union); w != float64(entry.count) {
			t.Errorf("cache entry stamped %d from a union of weight %v", entry.count, w)
		}
	}
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			pts := mixturePoints(1500, int64(20+p))
			for i := 0; i < len(pts); i += 30 {
				c.AddBatch(pts[i : i+30])
			}
		}(p)
	}
	stop := make(chan struct{})
	var qwg sync.WaitGroup
	for q := 0; q < 2; q++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Refresh()
				c.Centers()
			}
		}()
	}
	wg.Wait()
	close(stop)
	qwg.Wait()
	c.Refresh()
	if snap := c.cache.Load(); snap.count != 3000 || entries.Load() < 2 {
		t.Fatalf("final entry stamped %d after %d refreshes, want 3000", snap.count, entries.Load())
	}
}
