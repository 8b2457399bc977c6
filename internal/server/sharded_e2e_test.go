package server

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"streamkm"
	"streamkm/internal/persist"
	"streamkm/internal/registry"
	"streamkm/internal/wire"
)

// This file is the e2e suite for the sharded ingest pipelines behind the
// decayed and windowed backends. The standard test registry already runs
// every backend with two lanes; here shard counts are explicit (and
// larger than GOMAXPROCS on small CI machines) so the merge paths are
// exercised regardless of the host, and the differential/cost/race
// contracts from the PR are pinned:
//
//   - twin ndjson/binary replays into sharded streams agree exactly on
//     count and bit-for-bit (or within the documented 1e-9 cost bound)
//     on centers;
//   - a sharded replay's clustering cost stays within 1.5x of a
//     single-lane reference replay of the same sequence;
//   - concurrent ingest racing a detach (the quiesce path) never loses
//     an acknowledged point: acked == stored in the frozen snapshot.

// shardedRegistry mirrors streamkmRegistry but with an explicit ingest
// lane count instead of the helper's fixed 2.
func shardedRegistry(t testing.TB, cfg registry.Config, shards int) *registry.Registry {
	t.Helper()
	if cfg.Default == (registry.StreamConfig{}) {
		cfg.Default = registry.StreamConfig{Algo: "CC", K: 3}
	}
	base := streamkm.Config{BucketSize: 20, Seed: 7}
	cfg.New = func(id string, sc registry.StreamConfig) (registry.Backend, error) {
		return streamkm.Open(streamkm.SpecFromStreamConfig(sc, shards), base)
	}
	cfg.Restore = func(id string, want registry.StreamConfig, r io.Reader) (registry.Backend, registry.StreamConfig, error) {
		b, err := streamkm.Restore(streamkm.SpecFromStreamConfig(want, 0), r, streamkm.Config{Seed: base.Seed})
		if err != nil {
			return nil, registry.StreamConfig{}, err
		}
		return b, b.Spec().StreamConfig(), nil
	}
	cfg.Peek = func(r io.Reader) (registry.StreamConfig, int64, error) {
		m, err := persist.PeekBackend(r)
		if err != nil {
			return registry.StreamConfig{}, 0, err
		}
		return registry.StreamConfig{
			Backend: m.Type, Algo: m.Algo, K: m.K, Dim: m.Dim,
			HalfLife: m.HalfLife, HalfLifeSeconds: m.HalfLifeSeconds, WindowN: m.WindowN,
		}, m.Count, nil
	}
	reg, err := registry.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// separatedPoints generates n dim-d points in 4 widely separated unit
// Gaussians (spacing 200σ), float32-quantized for the binary wire.
func separatedPoints(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for j := range p {
			p[j] = wire.Quantize(rng.NormFloat64() + float64(200*(i%4)))
		}
		pts[i] = p
	}
	return pts
}

func putStream(t *testing.T, c *http.Client, url, spec string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create %s: status %d", url, resp.StatusCode)
	}
}

// TestShardedDifferentialEquivalence replays identical point sequences
// over both wire formats into 4-lane decayed and windowed streams.
// Sequential single-producer ingest makes the round-robin lane dispatch
// deterministic, so the twin contract stays as strict as the unsharded
// suite: exact counts, bit-identical centers (1e-9 relative cost as the
// documented fallback).
func TestShardedDifferentialEquivalence(t *testing.T) {
	reg := shardedRegistry(t, registry.Config{}, 4)
	ts := httptest.NewServer(NewMulti(reg, MultiConfig{MaxBatch: 64}).Handler())
	defer ts.Close()

	specs := []struct {
		name string
		spec string
	}{
		{"decayed", `{"backend":"decayed","algo":"CC","k":3,"half_life":400}`},
		{"decayed-wall", `{"backend":"decayed","algo":"CC","k":3,"half_life_seconds":3600}`},
		{"windowed", `{"backend":"windowed","k":3,"window_n":500}`},
	}
	pts := quantPoints(900, 3, 43)
	const reqBatch = 100

	for _, sp := range specs {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			idN, idB := "shdiff-"+sp.name+"-nd", "shdiff-"+sp.name+"-bin"
			putStream(t, ts.Client(), ts.URL+"/streams/"+idN, sp.spec)
			putStream(t, ts.Client(), ts.URL+"/streams/"+idB, sp.spec)
			for off := 0; off < len(pts); off += reqBatch {
				end := off + reqBatch
				if end > len(pts) {
					end = len(pts)
				}
				if got := postWire(t, ts.URL+"/streams/"+idN+"/ingest", false, pts[off:end], nil); got != int64(end-off) {
					t.Fatalf("ndjson batch at %d: ingested %d, want %d", off, got, end-off)
				}
				if got := postWire(t, ts.URL+"/streams/"+idB+"/ingest", true, pts[off:end], nil); got != int64(end-off) {
					t.Fatalf("binary batch at %d: ingested %d, want %d", off, got, end-off)
				}
			}
			assertEquivalent(t, sp.name, pts, ts.URL, idN, idB)

			// Stats report the lane count for the sharded variants.
			resp, m := getJSON(t, ts.URL+"/streams/"+idN+"/stats")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("stats status %d: %v", resp.StatusCode, m)
			}
			if got, _ := m["shards"].(float64); got != 4 {
				t.Fatalf("stats shards = %v, want 4 (%v)", m["shards"], m)
			}
		})
	}
}

// TestShardedVsSingleLaneCost replays the same sequence into a 4-lane
// and a 1-lane daemon: counts must agree exactly and the sharded
// clustering cost must stay within 1.5x of the single-lane reference
// (the coreset-union guarantee, measured end to end). Each side's cost is
// the median over 9 forced refreshes, so one unlucky k-means++ draw on
// either daemon does not decide the comparison.
func TestShardedVsSingleLaneCost(t *testing.T) {
	multi := httptest.NewServer(NewMulti(shardedRegistry(t, registry.Config{}, 4), MultiConfig{MaxBatch: 64}).Handler())
	defer multi.Close()
	single := httptest.NewServer(NewMulti(shardedRegistry(t, registry.Config{}, 1), MultiConfig{MaxBatch: 64}).Handler())
	defer single.Close()

	specs := []struct {
		name string
		spec string
	}{
		// k matches the generator's 4 clusters and the clusters are far
		// apart: both replays then settle into the same optimum and the
		// cost ratio measures shard merge quality rather than k-means
		// seeding variance.
		{"decayed", `{"backend":"decayed","algo":"CC","k":4,"half_life":400}`},
		{"windowed", `{"backend":"windowed","k":4,"window_n":600}`},
	}
	pts := separatedPoints(1200, 3, 44)
	const reqBatch = 100

	for _, sp := range specs {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			id := "ref-" + sp.name
			putStream(t, multi.Client(), multi.URL+"/streams/"+id, sp.spec)
			putStream(t, single.Client(), single.URL+"/streams/"+id, sp.spec)
			for off := 0; off < len(pts); off += reqBatch {
				end := off + reqBatch
				if end > len(pts) {
					end = len(pts)
				}
				postWire(t, multi.URL+"/streams/"+id+"/ingest", true, pts[off:end], nil)
				postWire(t, single.URL+"/streams/"+id+"/ingest", true, pts[off:end], nil)
			}
			// Cost the tail the windowed variant still covers; the decayed
			// variant's recency weighting only narrows the measured gap.
			ref := pts
			if sp.name == "windowed" {
				ref = pts[len(pts)-600:]
			}
			countM, costM := medianRefreshCost(t, multi.URL+"/streams/"+id+"/centers", ref)
			countS, costS := medianRefreshCost(t, single.URL+"/streams/"+id+"/centers", ref)
			if countM != countS || countM != int64(len(pts)) {
				t.Fatalf("counts diverge: sharded %d, single %d, replayed %d", countM, countS, len(pts))
			}
			if costM > 1.5*costS {
				t.Fatalf("sharded cost %v exceeds 1.5x single-lane cost %v", costM, costS)
			}
			if costS > 1.5*costM {
				t.Fatalf("single-lane cost %v exceeds 1.5x sharded cost %v — reference replay is suspect", costS, costM)
			}
		})
	}
}

// medianRefreshCost forces 9 refreshes of a stream's centers and returns
// the count they report with the median clustering cost of ref under
// them.
func medianRefreshCost(t *testing.T, url string, ref [][]float64) (int64, float64) {
	t.Helper()
	costs := make([]float64, 9)
	var count int64
	for i := range costs {
		var centers [][]float64
		count, centers = fetchCenters(t, url)
		costs[i] = clusteringCost(ref, centers)
	}
	sort.Float64s(costs)
	return count, costs[len(costs)/2]
}

// TestShardedIngestDetachQuiesce races concurrent producers against a
// detach (handoff freeze) of a sharded decayed stream and checks the
// quiesce contract end to end: every point a producer got a 200 for is
// in the frozen snapshot, every 409 is not, so acked == stored exactly.
// Run with -race: this is also the data-race probe for the lock-free
// sequencing path.
func TestShardedIngestDetachQuiesce(t *testing.T) {
	reg := shardedRegistry(t, registry.Config{DataDir: t.TempDir()}, 4)
	ts := httptest.NewServer(NewMulti(reg, MultiConfig{MaxBatch: 64}).Handler())
	defer ts.Close()

	const id = "quiesce-dec"
	putStream(t, ts.Client(), ts.URL+"/streams/"+id, `{"backend":"decayed","algo":"CC","k":3,"half_life":1000}`)

	const producers = 4
	const batches = 30
	const batchLen = 20
	var acked atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + p)))
			<-start
			for b := 0; b < batches; b++ {
				var body strings.Builder
				for i := 0; i < batchLen; i++ {
					fmt.Fprintf(&body, "[%v,%v]\n", rng.NormFloat64(), rng.NormFloat64())
				}
				resp, err := ts.Client().Post(ts.URL+"/streams/"+id+"/ingest",
					"application/x-ndjson", strings.NewReader(body.String()))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					acked.Add(batchLen)
				case http.StatusConflict:
					return // stream froze mid-run; nothing acked
				default:
					t.Errorf("ingest status %d", resp.StatusCode)
					return
				}
			}
		}(p)
	}
	close(start)
	// Detach mid-flight: Quiesce drains the lanes, the snapshot freezes.
	resp, _ := doReq(t, ts.Client(), http.MethodPost, ts.URL+"/streams/"+id+"/detach", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detach status %d", resp.StatusCode)
	}
	wg.Wait()

	// Reattach and read the stored count: exactly the acknowledged points.
	resp, _ = doReq(t, ts.Client(), http.MethodPost, ts.URL+"/streams/"+id+"/reattach", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reattach status %d", resp.StatusCode)
	}
	resp, m := getJSON(t, ts.URL+"/streams/"+id+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d: %v", resp.StatusCode, m)
	}
	if got := int64(m["count"].(float64)); got != acked.Load() {
		t.Fatalf("stored count %d != acked %d: quiesce lost or invented points", got, acked.Load())
	}
}

// TestShardedKillRestart is the kill/restart e2e for the sharded
// variants: 4-lane decayed (arrival-count and wall-clock) and windowed
// tenants checkpoint through the v4 sub-envelope path, a fresh registry
// restores them from disk alone, and counts, lane counts and clustering
// cost survive.
func TestShardedKillRestart(t *testing.T) {
	dir := t.TempDir()
	regCfg := registry.Config{DataDir: dir}
	reg := shardedRegistry(t, regCfg, 4)
	ts := httptest.NewServer(NewMulti(reg, MultiConfig{MaxBatch: 100}).Handler())

	tenants := []struct {
		id   string
		spec string
	}{
		{"sdec", `{"backend":"decayed","algo":"CC","k":3,"half_life":5000}`},
		{"swall", `{"backend":"decayed","algo":"CC","k":3,"half_life_seconds":86400}`},
		{"swin", `{"backend":"windowed","k":3,"window_n":100000}`},
	}
	pts := quantPoints(800, 2, 45)
	for _, tn := range tenants {
		putStream(t, ts.Client(), ts.URL+"/streams/"+tn.id, tn.spec)
		for off := 0; off < len(pts); off += 100 {
			postWire(t, ts.URL+"/streams/"+tn.id+"/ingest", true, pts[off:off+100], nil)
		}
	}
	preCost := make(map[string]float64)
	for _, tn := range tenants {
		count, centers := fetchCenters(t, ts.URL+"/streams/"+tn.id+"/centers")
		if count != int64(len(pts)) {
			t.Fatalf("%s count %d, want %d", tn.id, count, len(pts))
		}
		preCost[tn.id] = clusteringCost(pts, centers)
	}

	if err := reg.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	// Restart with a different configured lane count: snapshots carry
	// their own shard layout, so the tenants come back with the lanes
	// they were frozen with.
	reg2 := shardedRegistry(t, regCfg, 2)
	ts2 := httptest.NewServer(NewMulti(reg2, MultiConfig{MaxBatch: 100}).Handler())
	defer ts2.Close()

	for _, tn := range tenants {
		count, centers := fetchCenters(t, ts2.URL+"/streams/"+tn.id+"/centers")
		if count != int64(len(pts)) {
			t.Errorf("%s count after restart %d, want %d", tn.id, count, len(pts))
			continue
		}
		cost := clusteringCost(pts, centers)
		if cost > 2*preCost[tn.id] || preCost[tn.id] > 2*cost {
			t.Errorf("%s cost after restart %v vs %v", tn.id, cost, preCost[tn.id])
		}
		resp, m := getJSON(t, ts2.URL+"/streams/"+tn.id+"/stats")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s stats status %d", tn.id, resp.StatusCode)
		}
		if got, _ := m["shards"].(float64); got != 4 {
			t.Errorf("%s restored with %v lanes, want the frozen 4", tn.id, m["shards"])
		}
		if tn.id == "swall" {
			if hl, _ := m["half_life_seconds"].(float64); hl != 86400 {
				t.Errorf("swall half_life_seconds = %v after restart, want 86400", m["half_life_seconds"])
			}
		}
	}
}
