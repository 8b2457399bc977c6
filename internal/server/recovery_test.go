package server

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"streamkm"
	"streamkm/internal/registry"
)

// The end-to-end crash-recovery suite: for every coreset algorithm, a
// server that is stopped after a snapshot and whose snapshot is installed
// into a fresh process-equivalent must be indistinguishable — same
// count, same memory footprint, equivalent clustering cost — from a
// server that never went down. This is the test the checkpoint subsystem
// exists to pass.

// recoverable is a servable backend that can also checkpoint itself.
type recoverable interface {
	Clusterer
	Snapshotter
}

// lockedOnlineCC adapts a single-goroutine OnlineCC clusterer to the
// server's concurrent Clusterer interface with one mutex — the simplest
// way to serve (and therefore crash-recover) the paper's fastest-query
// algorithm, which has no sharded variant because its sequential cache
// does not union.
type lockedOnlineCC struct {
	mu sync.Mutex
	c  streamkm.Clusterer
}

func (l *lockedOnlineCC) AddBatch(pts [][]float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, p := range pts {
		l.c.Add(p)
	}
}

func (l *lockedOnlineCC) Centers() [][]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.c.Centers()
}

func (l *lockedOnlineCC) Count() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.c.(interface{ Count() int64 }).Count()
}

func (l *lockedOnlineCC) PointsStored() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.c.PointsStored()
}

func (l *lockedOnlineCC) Name() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.c.Name()
}

func (l *lockedOnlineCC) Snapshot(w io.Writer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return streamkm.Save(w, l.c)
}

// recoveryBackend builds fresh and snapshot-restored instances of one
// algorithm's serving backend. restore runs inside the registry, on a
// request's goroutine, so it reports failure as an error.
type recoveryBackend struct {
	name    string
	fresh   func(t *testing.T) recoverable
	restore func(snap []byte) (recoverable, error)
}

func recoveryBackends() []recoveryBackend {
	cfg := streamkm.Config{K: 3, BucketSize: 30, Seed: 11}
	var out []recoveryBackend
	for _, algo := range []streamkm.Algo{streamkm.AlgoCT, streamkm.AlgoCC, streamkm.AlgoRCC} {
		algo := algo
		out = append(out, recoveryBackend{
			name: string(algo),
			fresh: func(t *testing.T) recoverable {
				c, err := streamkm.NewConcurrent(algo, 2, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return c
			},
			restore: func(snap []byte) (recoverable, error) {
				return streamkm.NewConcurrentFromSnapshot(bytes.NewReader(snap), streamkm.Config{Seed: 43})
			},
		})
	}
	out = append(out, recoveryBackend{
		name: "OnlineCC",
		fresh: func(t *testing.T) recoverable {
			c, err := streamkm.New(streamkm.AlgoOnlineCC, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return &lockedOnlineCC{c: c}
		},
		restore: func(snap []byte) (recoverable, error) {
			c, err := streamkm.Load(bytes.NewReader(snap), streamkm.Config{Seed: 43})
			if err != nil {
				return nil, err
			}
			return &lockedOnlineCC{c: c}, nil
		},
	})
	return out
}

// recoveryStream generates a deterministic well-separated mixture so
// query randomness cannot flip cluster assignments between runs.
func recoveryStream(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	centers := [][]float64{{0, 0}, {80, 0}, {0, 80}}
	out := make([][]float64, n)
	for i := range out {
		c := centers[rng.Intn(len(centers))]
		out[i] = []float64{c[0] + rng.NormFloat64(), c[1] + rng.NormFloat64()}
	}
	return out
}

// ingestChunks POSTs the points in fixed-size ndjson requests. Chunk size
// == MaxBatch keeps batch (and therefore shard-routing) boundaries
// identical between an uninterrupted run and a snapshot/restore run.
func ingestChunks(t *testing.T, ts *httptest.Server, pts [][]float64, chunk int) {
	t.Helper()
	for i := 0; i < len(pts); i += chunk {
		end := i + chunk
		if end > len(pts) {
			end = len(pts)
		}
		var b strings.Builder
		for _, p := range pts[i:end] {
			fmt.Fprintf(&b, "[%v,%v]\n", p[0], p[1])
		}
		resp, err := ts.Client().Post(ts.URL+"/ingest", "application/x-ndjson", strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
	}
}

func fetchSnapshot(t *testing.T, ts *httptest.Server) []byte {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /snapshot status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func kmeansCost(pts [][]float64, centers [][]float64) float64 {
	return streamkm.Cost(pts, centers)
}

// TestSnapshotDuringConcurrentTraffic checkpoints over HTTP while P
// producers ingest and queriers read /centers. Every snapshot taken must
// decode and restore to a consistent state whose count lies inside the
// bounds observed around the request, ingest must never deadlock, and no
// point may be lost. Run with -race.
func TestSnapshotDuringConcurrentTraffic(t *testing.T) {
	const (
		producers = 4
		batches   = 30
		batchSize = 40
	)
	c, err := streamkm.NewConcurrent(streamkm.AlgoCC, producers, streamkm.Config{K: 3, BucketSize: 20})
	if err != nil {
		t.Fatal(err)
	}
	ts := serve(t, NewMulti(singleStreamRegistry(t, registry.Config{
		Default: registry.StreamConfig{Algo: "CC", K: 3},
	}, c, nil), MultiConfig{MaxBatch: batchSize}))
	// The first snapshot may be taken before any ingest lands.
	putStream(t, ts.Client(), ts.URL+"/streams/default", "")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			pts := recoveryStream(batchSize, seed)
			var b strings.Builder
			for _, pt := range pts {
				fmt.Fprintf(&b, "[%v,%v]\n", pt[0], pt[1])
			}
			body := b.String()
			for i := 0; i < batches; i++ {
				resp, err := ts.Client().Post(ts.URL+"/ingest", "application/x-ndjson", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(int64(p + 1))
	}
	// Queriers hammer the cached-centers fast path until producers finish.
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := ts.Client().Get(ts.URL + "/centers")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}

	type bound struct {
		raw    []byte
		lo, hi int64
	}
	var snaps []bound
	for i := 0; i < 6; i++ {
		lo := c.Count()
		raw := fetchSnapshot(t, ts)
		snaps = append(snaps, bound{raw: raw, lo: lo, hi: c.Count()})
	}
	close(stop)
	wg.Wait()

	for i, s := range snaps {
		r, err := streamkm.NewConcurrentFromSnapshot(bytes.NewReader(s.raw), streamkm.Config{Seed: 5})
		if err != nil {
			t.Fatalf("snapshot %d taken under load failed to restore: %v", i, err)
		}
		if n := r.Count(); n < s.lo || n > s.hi {
			t.Errorf("snapshot %d count %d outside observed bounds [%d,%d]", i, n, s.lo, s.hi)
		}
	}
	if got, want := c.Count(), int64(producers*batches*batchSize); got != want {
		t.Fatalf("final count %d, want %d (ingest lost points under snapshots)", got, want)
	}
}

func TestEndToEndCrashRecovery(t *testing.T) {
	const (
		n     = 2400
		chunk = 50
	)
	stream := recoveryStream(n, 77)
	holdout := recoveryStream(600, 991)

	for _, b := range recoveryBackends() {
		t.Run(b.name, func(t *testing.T) {
			regCfg := registry.Config{Default: registry.StreamConfig{Algo: b.name, K: 3}}
			serveBackend := func(c recoverable) *httptest.Server {
				return httptest.NewServer(NewMulti(singleStreamRegistry(t, regCfg, c, nil), MultiConfig{MaxBatch: chunk}).Handler())
			}

			// Uninterrupted reference run.
			ref := b.fresh(t)
			refSrv := serveBackend(ref)
			ingestChunks(t, refSrv, stream, chunk)
			refCount := ref.Count()
			refStored := ref.PointsStored()
			refCost := kmeansCost(holdout, ref.Centers())
			refSrv.Close()
			if refCount != n {
				t.Fatalf("reference count %d, want %d", refCount, n)
			}

			// Crashed run: ingest half, snapshot over HTTP, tear everything
			// down, install the snapshot into a brand-new server, ingest
			// the rest.
			srv1 := serveBackend(b.fresh(t))
			ingestChunks(t, srv1, stream[:n/2], chunk)
			snap := fetchSnapshot(t, srv1)
			srv1.Close() // the "crash": the first server is gone for good

			var restored recoverable
			installCfg := regCfg
			installCfg.DataDir = t.TempDir() // an install persists the envelope first
			srv2 := serve(t, NewMulti(singleStreamRegistry(t, installCfg, nil, func(snap []byte) (registry.Backend, error) {
				r, err := b.restore(snap)
				if err != nil {
					return nil, err
				}
				restored = r
				return r, nil
			}), MultiConfig{MaxBatch: chunk}))
			if resp, body := doReq(t, srv2.Client(), http.MethodPut, srv2.URL+"/streams/default/snapshot", string(snap)); resp.StatusCode != http.StatusCreated {
				t.Fatalf("install snapshot: status %d: %s", resp.StatusCode, body)
			}
			if got := restored.Count(); got != n/2 {
				t.Fatalf("restored count %d, want %d", got, n/2)
			}
			ingestChunks(t, srv2, stream[n/2:], chunk)

			// No ingested weight may be lost, and memory must rebuild to
			// exactly the uninterrupted footprint (the structures are
			// deterministic in the stream's batch boundaries).
			if got := restored.Count(); got != refCount {
				t.Errorf("count after recovery %d, want %d", got, refCount)
			}
			if got := restored.PointsStored(); got != refStored {
				t.Errorf("points stored after recovery %d, want %d", got, refStored)
			}

			// Clustering quality must be equivalent within the tolerance of
			// re-seeded query randomness.
			gotCost := kmeansCost(holdout, restored.Centers())
			if gotCost > 2*refCost || refCost > 2*gotCost {
				t.Errorf("recovered cost %v vs uninterrupted %v", gotCost, refCost)
			}
		})
	}
}
