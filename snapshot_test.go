package streamkm

import (
	"bytes"
	"sync"
	"testing"
)

// TestConcurrentSnapshotRoundTrip checkpoints a Concurrent mid-stream and
// verifies the restored instance carries every point, the same memory
// footprint, the same algorithm, and a clustering of equivalent quality.
func TestConcurrentSnapshotRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name   string
		algo   Algo
		shards int
		add    bool // round-robin Add instead of AddBatch
	}{
		{"CT", AlgoCT, 3, false},
		{"CC", AlgoCC, 3, false},
		{"RCC", AlgoRCC, 3, false},
		{"RCC-4-lanes-Add", AlgoRCC, 4, true},
	} {
		algo := tc.algo
		t.Run(tc.name, func(t *testing.T) {
			pts := mixturePoints(3000, 21)
			c := MustNewConcurrent(algo, tc.shards, Config{K: 3, BucketSize: 30, Seed: 9})
			for i := 0; i < len(pts); i += 50 {
				if !tc.add {
					c.AddBatch(pts[i : i+50])
					continue
				}
				for _, p := range pts[i : i+50] {
					c.Add(p)
				}
			}
			pre := c.Centers() // warm the cache so it is snapshotted too

			var buf bytes.Buffer
			if err := c.Snapshot(&buf); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			r, err := NewConcurrentFromSnapshot(&buf, Config{Seed: 77})
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if r.Count() != c.Count() {
				t.Errorf("Count %d, want %d", r.Count(), c.Count())
			}
			if r.PointsStored() != c.PointsStored() {
				t.Errorf("PointsStored %d, want %d", r.PointsStored(), c.PointsStored())
			}
			if r.NumShards() != c.NumShards() {
				t.Errorf("NumShards %d, want %d", r.NumShards(), c.NumShards())
			}
			if r.K() != c.K() || r.Algo() != algo || r.Name() != c.Name() {
				t.Errorf("identity k=%d algo=%s name=%s", r.K(), r.Algo(), r.Name())
			}
			if r.Dim() != 2 {
				t.Errorf("Dim %d, want 2", r.Dim())
			}

			// The cached-centers entry travels with the snapshot: the first
			// query on the restored instance must be a cache hit answering
			// the exact pre-snapshot centers.
			got := r.Centers()
			if hits, misses := r.CacheStats(); hits != 1 || misses != 0 {
				t.Errorf("restored cache hits=%d misses=%d, want 1/0", hits, misses)
			}
			if len(got) != len(pre) {
				t.Fatalf("restored %d centers, want %d", len(got), len(pre))
			}
			for i := range got {
				for j := range got[i] {
					if got[i][j] != pre[i][j] {
						t.Fatalf("restored cached center %d differs: %v vs %v", i, got[i], pre[i])
					}
				}
			}

			// A forced recomputation on the restored state (fresh seed) must
			// cluster as well as the original — the coresets are identical.
			if cost, orig := Cost(pts, r.Refresh()), Cost(pts, pre); cost > 2*orig {
				t.Errorf("restored cost %v vs original %v", cost, orig)
			}
		})
	}
}

// TestConcurrentSnapshotPreservesWeights checks that weighted ingest
// survives a round trip: restored centers must reflect the weights, not
// just the point count.
func TestConcurrentSnapshotPreservesWeights(t *testing.T) {
	c := MustNewConcurrent(AlgoCC, 2, Config{K: 2, BucketSize: 20, Seed: 3})
	// Heavy mass at (100,100), light noise at the origin: with weights
	// intact, one center must sit near (100,100).
	for i := 0; i < 200; i++ {
		c.AddWeighted(Point{100, 100}, 50)
		c.Add(Point{float64(i % 7), float64(i % 5)})
	}
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := NewConcurrentFromSnapshot(&buf, Config{Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	if r.Count() != 400 {
		t.Fatalf("Count %d, want 400", r.Count())
	}
	found := false
	for _, ct := range r.Refresh() {
		if dx, dy := ct[0]-100, ct[1]-100; dx*dx+dy*dy < 25 {
			found = true
		}
	}
	if !found {
		t.Errorf("no restored center near the heavy mass: %v", r.Refresh())
	}
}

// TestSnapshotKindMismatch: single-clusterer snapshots and sharded
// snapshots must not cross-restore.
func TestSnapshotKindMismatch(t *testing.T) {
	single := MustNew(AlgoCC, Config{K: 2})
	for _, p := range mixturePoints(100, 4) {
		single.Add(p)
	}
	var buf bytes.Buffer
	if err := Save(&buf, single); err != nil {
		t.Fatal(err)
	}
	if _, err := NewConcurrentFromSnapshot(bytes.NewReader(buf.Bytes()), Config{}); err == nil {
		t.Error("NewConcurrentFromSnapshot accepted a single-clusterer snapshot")
	}

	conc := MustNewConcurrent(AlgoCC, 2, Config{K: 2})
	for _, p := range mixturePoints(100, 5) {
		conc.Add(p)
	}
	var cbuf bytes.Buffer
	if err := conc.Snapshot(&cbuf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(cbuf.Bytes()), Config{}); err == nil {
		t.Error("Load accepted a sharded snapshot")
	}
}

// TestConcurrentSnapshotUnderIngest takes snapshots while producers
// hammer every shard; each snapshot must decode and restore to a
// consistent state whose count lies between the points applied before the
// snapshot began and those applied when it returned. Run with -race.
func TestConcurrentSnapshotUnderIngest(t *testing.T) {
	const (
		producers = 4
		perProd   = 800
	)
	c := MustNewConcurrent(AlgoCC, producers, Config{K: 3, BucketSize: 20, Seed: 6})
	pts := mixturePoints(perProd, 13)

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for _, pt := range pts {
				c.AddTo(shard, pt)
			}
		}(p)
	}

	snaps := make([][]byte, 0, 8)
	bounds := make([][2]int64, 0, 8)
	for i := 0; i < 8; i++ {
		lo := c.Count()
		var buf bytes.Buffer
		if err := c.Snapshot(&buf); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		hi := c.Count()
		snaps = append(snaps, buf.Bytes())
		bounds = append(bounds, [2]int64{lo, hi})
	}
	wg.Wait()

	for i, raw := range snaps {
		r, err := NewConcurrentFromSnapshot(bytes.NewReader(raw), Config{Seed: 17})
		if err != nil {
			t.Fatalf("snapshot %d failed to restore: %v", i, err)
		}
		if n := r.Count(); n < bounds[i][0] || n > bounds[i][1] {
			t.Errorf("snapshot %d count %d outside observed bounds [%d,%d]",
				i, n, bounds[i][0], bounds[i][1])
		}
	}
	if c.Count() != producers*perProd {
		t.Fatalf("final count %d, want %d", c.Count(), producers*perProd)
	}
}
