package streamkm

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"streamkm/internal/decay"
	"streamkm/internal/registry"
)

// Sharded-pipeline coverage at the public backend layer: explicit lane
// counts (the package tests otherwise inherit GOMAXPROCS, which is 1 on
// small CI machines), the wall-clock half-life spec, and the upgrade
// path from the committed pre-sharding golden snapshots.

func shardedSpecs() map[string]BackendSpec {
	return map[string]BackendSpec{
		"decayed":      {Type: BackendDecayed, Algo: AlgoCC, K: 3, Shards: 4, HalfLife: 800},
		"decayed-wall": {Type: BackendDecayed, Algo: AlgoCC, K: 3, Shards: 4, HalfLifeSeconds: 3600},
		"windowed":     {Type: BackendWindowed, K: 3, Shards: 4, WindowN: 5000},
	}
}

// laneSpecs are the Open specs of every lane-backend variant.
func laneSpecs() map[string]BackendSpec {
	specs := shardedSpecs()
	specs["concurrent"] = BackendSpec{Type: BackendConcurrent, Algo: AlgoCC, K: 3, Shards: 4}
	specs["concurrent-quota"] = BackendSpec{Type: BackendConcurrent, Algo: AlgoCC, K: 3, Shards: 4, PointsPerSec: 1000}
	return specs
}

// laneBackendOf returns the lane backend behind a backend Open built.
func laneBackendOf(t *testing.T, b Backend) *laneBackend {
	t.Helper()
	switch lb := b.(type) {
	case *Concurrent:
		return &lb.laneBackend
	case *laneBackend:
		return lb
	}
	t.Fatalf("%T is not a lane backend", b)
	return nil
}

func numShards(t *testing.T, b Backend) int {
	t.Helper()
	s, ok := b.(interface{ NumShards() int })
	if !ok {
		t.Fatalf("%T does not report a lane count", b)
	}
	return s.NumShards()
}

// TestShardedBackendSnapshotRoundTrip: explicit 4-lane decayed (both
// half-life encodings) and windowed backends snapshot through the v4
// sub-envelopes and restore with lanes, counts, spec and clustering
// cost intact.
func TestShardedBackendSnapshotRoundTrip(t *testing.T) {
	pts := backendStream(2000, 42)
	for name, spec := range shardedSpecs() {
		t.Run(name, func(t *testing.T) {
			cfg := Config{BucketSize: 60, Seed: 5}
			b, err := Open(spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			b.AddBatch(pts[:1500])
			b.AddWeighted(pts[1500], 2.5)
			b.AddBatch(pts[1501:])
			if b.Count() != 2000 {
				t.Fatalf("count %d, want 2000", b.Count())
			}
			if got := numShards(t, b); got != 4 {
				t.Fatalf("%d lanes, want 4", got)
			}
			preCost := Cost(pts, b.Centers())

			var buf bytes.Buffer
			if err := b.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			r, err := Restore(spec, bytes.NewReader(buf.Bytes()), Config{Seed: 6})
			if err != nil {
				t.Fatal(err)
			}
			if r.Count() != 2000 {
				t.Fatalf("restored count %d, want 2000", r.Count())
			}
			if got := numShards(t, r); got != 4 {
				t.Fatalf("restored with %d lanes, want 4", got)
			}
			got := r.Spec()
			if got.HalfLife != spec.HalfLife || got.HalfLifeSeconds != spec.HalfLifeSeconds {
				t.Fatalf("restored spec half-lives %+v, want %+v", got, spec)
			}
			postCost := Cost(pts, r.Centers())
			if postCost > 2*preCost || preCost > 2*postCost {
				t.Fatalf("cost after restore %v vs %v", postCost, preCost)
			}
			r.AddBatch(pts[:10])
			if r.Count() != 2010 {
				t.Fatalf("count after resume %d, want 2010", r.Count())
			}
		})
	}
}

// TestSpecFromStreamConfigShards pins the per-tenant shards knob: a
// stream's own "shards" overrides the serving layer's default, zero
// inherits it, and the inverse mapping reports the actual lane count.
func TestSpecFromStreamConfigShards(t *testing.T) {
	sc := registry.StreamConfig{Backend: "decayed", Algo: "CC", K: 3, HalfLife: 100}
	if got := SpecFromStreamConfig(sc, 4).Shards; got != 4 {
		t.Fatalf("unset knob: shards %d, want the default 4", got)
	}
	sc.Shards = 3
	if got := SpecFromStreamConfig(sc, 4).Shards; got != 3 {
		t.Fatalf("shards knob ignored: %d, want 3", got)
	}
	spec := SpecFromStreamConfig(sc, 4)
	if got := spec.StreamConfig().Shards; got != 3 {
		t.Fatalf("inverse mapping dropped shards: %d, want 3", got)
	}
	b, err := Open(spec, Config{BucketSize: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := numShards(t, b); got != 3 {
		t.Fatalf("opened with %d lanes, want 3", got)
	}
	if err := (registry.StreamConfig{Algo: "CC", K: 3, Shards: -1}).Validate(); err == nil {
		t.Error("negative shards accepted")
	}
	if err := (registry.StreamConfig{Algo: "CC", K: 3, Shards: registry.MaxShards + 1}).Validate(); err == nil {
		t.Error("absurd shards accepted")
	}
}

// TestHalfLifeSpecValidation pins the exactly-one rule for the two
// half-life encodings and confines them to the decayed variant.
func TestHalfLifeSpecValidation(t *testing.T) {
	cfg := Config{BucketSize: 60, Seed: 5}
	bad := []BackendSpec{
		{Type: BackendDecayed, K: 3},                                       // neither
		{Type: BackendDecayed, K: 3, HalfLife: 100, HalfLifeSeconds: 60},   // both
		{Type: BackendDecayed, K: 3, HalfLifeSeconds: -1},                  // negative
		{Type: BackendWindowed, K: 3, WindowN: 100, HalfLifeSeconds: 60},   // wrong variant
		{Type: BackendConcurrent, Algo: AlgoCC, K: 3, HalfLifeSeconds: 60}, // wrong variant
		{Type: BackendConcurrent, Algo: AlgoCC, K: 3, HalfLife: 100},       // wrong variant
	}
	for i, spec := range bad {
		if _, err := Open(spec, cfg); err == nil {
			t.Errorf("case %d (%+v): accepted", i, spec)
		}
	}
	// The two valid encodings both open.
	for _, spec := range []BackendSpec{
		{Type: BackendDecayed, Algo: AlgoCC, K: 3, HalfLife: 100},
		{Type: BackendDecayed, Algo: AlgoCC, K: 3, HalfLifeSeconds: 60},
	} {
		if _, err := Open(spec, cfg); err != nil {
			t.Errorf("%+v: %v", spec, err)
		}
	}
}

// TestRestoreGoldenLegacyBackends loads the committed pre-sharding (v3)
// golden snapshots through the public Restore: they come back as
// single-lane pipelines that keep serving and, once re-snapshotted,
// write the current sharded format and restore again.
func TestRestoreGoldenLegacyBackends(t *testing.T) {
	cases := []struct {
		fixture string
		count   int64
	}{
		{"v3-decayed.snap", 700},
		{"v3-windowed.snap", 900},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("internal", "persist", "testdata", tc.fixture))
			if err != nil {
				t.Fatal(err)
			}
			b, err := Restore(BackendSpec{}, bytes.NewReader(raw), Config{BucketSize: 30, Seed: 1})
			if err != nil {
				t.Fatalf("golden %s no longer restores through the backend layer: %v", tc.fixture, err)
			}
			if b.Count() != tc.count {
				t.Fatalf("count %d, want %d", b.Count(), tc.count)
			}
			if got := numShards(t, b); got != 1 {
				t.Fatalf("legacy snapshot restored with %d lanes, want 1", got)
			}
			if len(b.Centers()) == 0 {
				t.Fatal("no centers from restored legacy backend")
			}
			// It keeps ingesting, and its next snapshot is the sharded
			// format, which restores again.
			b.AddBatch([][]float64{{1, 2}, {3, 4}})
			var buf bytes.Buffer
			if err := b.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			r, err := Restore(BackendSpec{}, bytes.NewReader(buf.Bytes()), Config{BucketSize: 30, Seed: 1})
			if err != nil {
				t.Fatalf("re-snapshotted legacy backend no longer restores: %v", err)
			}
			if r.Count() != tc.count+2 {
				t.Fatalf("re-restored count %d, want %d", r.Count(), tc.count+2)
			}
		})
	}
}

// TestDecayedRefreshDoesNotWaitForLaneLocks: a decayed backend's lanes
// publish their views at batch end, so Refresh recomputes while Quiesce
// holds every lane lock instead of waiting for it.
func TestDecayedRefreshDoesNotWaitForLaneLocks(t *testing.T) {
	for _, name := range []string{"decayed", "decayed-wall"} {
		t.Run(name, func(t *testing.T) {
			b, err := Open(shardedSpecs()[name], Config{BucketSize: 20, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			pts := backendStream(600, 43)
			for i := 0; i < len(pts); i += 100 {
				b.AddBatch(pts[i : i+100])
			}
			db := laneBackendOf(t, b)
			err = db.lanes.(*decayedLanes).Quiesce(func([]*decay.Shard, int64, int64, int64) error {
				done := make(chan [][]float64)
				go func() { done <- db.Refresh() }()
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
		})
	}
}

// TestDecayedRefreshCoversCount races AddBatch producers against Refresh
// on every lane-backend variant (decayed with arrival-count and
// wall-clock decay among them): every cache entry covers at least the
// count read before its refresh, and the last one covers every arrival.
// Run with -race -count=10.
func TestDecayedRefreshCoversCount(t *testing.T) {
	for name, spec := range laneSpecs() {
		t.Run(name, func(t *testing.T) {
			b, err := Open(spec, Config{BucketSize: 20, Seed: 4})
			if err != nil {
				t.Fatal(err)
			}
			db := laneBackendOf(t, b)
			var wg sync.WaitGroup
			for p := 0; p < 3; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					pts := backendStream(900, int64(50+p))
					for i := 0; i < len(pts); i += 45 {
						b.AddBatch(pts[i : i+45])
					}
				}(p)
			}
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					select {
					case <-stop:
						return
					default:
					}
					n := b.Count()
					db.Refresh()
					if got := db.cache.Load().count; got < n {
						t.Errorf("refresh stamped %d after reading count %d", got, n)
						return
					}
				}
			}()
			wg.Wait()
			close(stop)
			<-done
			db.Refresh()
			if got := db.cache.Load().count; got != 2700 {
				t.Fatalf("final entry stamped %d, want 2700", got)
			}
		})
	}
}
