package server

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"streamkm/internal/geom"
	"streamkm/internal/registry"
	"streamkm/internal/trace"
	"streamkm/internal/wire"
)

// This file is the differential equivalence suite for the binary ingest
// format: the same point sequence replayed through the ndjson path and
// through application/x-streamkm-batch into twin streams must leave both
// backends in the same state. The test registry is fully deterministic
// (fixed backend seed, sequential single-producer ingest, identical
// request batching), so "the same state" is asserted bit-for-bit on the
// final center sets, with a 1e-9 relative clustering-cost bound as the
// documented fallback contract. Points are pre-quantized to float32
// precision (wire.Quantize) so the binary wire's float32 coordinates are
// not a confound.

// quantPoints generates a deterministic float32-exact dataset: dim-d
// points in a few loose clusters.
func quantPoints(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for j := range p {
			p[j] = wire.Quantize(rng.NormFloat64() + float64(3*(i%4)))
		}
		pts[i] = p
	}
	return pts
}

// postWire sends one batch over the chosen wire format and returns the
// acknowledged point count.
func postWire(t *testing.T, url string, binary bool, pts [][]float64, weights []float64) int64 {
	t.Helper()
	var body []byte
	contentType := "application/x-ndjson"
	if binary {
		raw, err := wire.EncodeBatch(pts, weights)
		if err != nil {
			t.Fatal(err)
		}
		body = raw
		contentType = wire.ContentType
	} else {
		var b strings.Builder
		for i, p := range pts {
			if weights != nil {
				fmt.Fprintf(&b, `{"p":%s,"w":%v}`+"\n", jsonFloats(p), weights[i])
			} else {
				b.WriteString(jsonFloats(p))
				b.WriteByte('\n')
			}
		}
		body = []byte(b.String())
	}
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]interface{}
	decodeJSON(t, resp, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s (%s): status %d body %v", url, contentType, resp.StatusCode, out)
	}
	return int64(out["ingested"].(float64))
}

// jsonFloats renders a point as a JSON array without going through
// encoding/json (keeps the helper dependency-free for exact floats —
// %v of a float64 round-trips exactly for strconv-parsable values).
func jsonFloats(p []float64) string {
	var b strings.Builder
	b.WriteByte('[')
	for j, x := range p {
		if j > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%v", x)
	}
	b.WriteByte(']')
	return b.String()
}

// fetchCenters queries a stream's centers with a forced recomputation,
// returning the count and center set.
func fetchCenters(t *testing.T, url string) (int64, [][]float64) {
	t.Helper()
	resp, m := getJSON(t, url+"?refresh=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("centers %s: status %d body %v", url, resp.StatusCode, m)
	}
	raw := m["centers"].([]interface{})
	centers := make([][]float64, len(raw))
	for i, c := range raw {
		cs := c.([]interface{})
		centers[i] = make([]float64, len(cs))
		for j, v := range cs {
			centers[i][j] = v.(float64)
		}
	}
	return int64(m["count"].(float64)), centers
}

// clusteringCost is the equivalence fallback metric: sum over the
// replayed points of the squared distance to the nearest center.
func clusteringCost(pts [][]float64, centers [][]float64) float64 {
	ws := make([]geom.Weighted, len(pts))
	for i, p := range pts {
		ws[i] = geom.Weighted{P: geom.Point(p), W: 1}
	}
	cs := make([]geom.Point, len(centers))
	for i, c := range centers {
		cs[i] = geom.Point(c)
	}
	return geom.FlattenCenters(cs).Cost(ws)
}

// assertEquivalent compares the twin streams' final states: identical
// counts, and center sets that are bit-for-bit equal — or, failing
// exactness, within 1e-9 relative clustering cost (the documented bound
// for paths that are not perfectly deterministic).
func assertEquivalent(t *testing.T, label string, pts [][]float64, base string, a, b string) {
	t.Helper()
	countA, centersA := fetchCenters(t, base+"/streams/"+a+"/centers")
	countB, centersB := fetchCenters(t, base+"/streams/"+b+"/centers")
	if countA != countB {
		t.Fatalf("%s: counts diverge: ndjson %d, binary %d", label, countA, countB)
	}
	if int64(len(pts)) != countA {
		t.Fatalf("%s: count %d, replayed %d points", label, countA, len(pts))
	}
	exact := len(centersA) == len(centersB)
	if exact {
	outer:
		for i := range centersA {
			if len(centersA[i]) != len(centersB[i]) {
				exact = false
				break
			}
			for j := range centersA[i] {
				if centersA[i][j] != centersB[i][j] {
					exact = false
					break outer
				}
			}
		}
	}
	if exact {
		return
	}
	costA := clusteringCost(pts, centersA)
	costB := clusteringCost(pts, centersB)
	denom := math.Max(math.Abs(costA), math.Abs(costB))
	if denom == 0 {
		return
	}
	if rel := math.Abs(costA-costB) / denom; rel > 1e-9 {
		t.Fatalf("%s: centers diverge beyond the cost bound: ndjson cost %v, binary cost %v (rel %v)\nndjson: %v\nbinary: %v",
			label, costA, costB, rel, centersA, centersB)
	}
	t.Logf("%s: centers not bit-identical but within 1e-9 relative cost", label)
}

// TestBinaryNdjsonEquivalence replays the identical (float32-quantized)
// point sequence through both wire formats into twin streams of each
// backend variant and requires equivalent final state.
func TestBinaryNdjsonEquivalence(t *testing.T) {
	ts, _ := newMultiServer(t, registry.Config{}, MultiConfig{MaxBatch: 64})

	specs := []struct {
		name string
		spec string
	}{
		{"concurrent", `{"backend":"concurrent","algo":"CC","k":3}`},
		{"decayed", `{"backend":"decayed","algo":"CC","k":3,"half_life":400}`},
		{"windowed", `{"backend":"windowed","algo":"CC","k":3,"window_n":500}`},
	}
	pts := quantPoints(900, 3, 42)
	const reqBatch = 100 // spans multiple MaxBatch chunks per request

	for _, sp := range specs {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			idN, idB := "diff-"+sp.name+"-nd", "diff-"+sp.name+"-bin"
			for _, id := range []string{idN, idB} {
				req, err := http.NewRequest(http.MethodPut, ts.URL+"/streams/"+id, strings.NewReader(sp.spec))
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set("Content-Type", "application/json")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusCreated {
					t.Fatalf("create %s: status %d", id, resp.StatusCode)
				}
			}
			// Sequential replay, identical request batching on both wires:
			// the backends see identical AddBatch call sequences.
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
		})
	}
}

// TestBinaryNdjsonEquivalenceWeighted covers the weighted record paths:
// ndjson {"p":...,"w":...} records versus a binary batch with the
// weights flag, same points, same weights.
func TestBinaryNdjsonEquivalenceWeighted(t *testing.T) {
	ts, _ := newMultiServer(t, registry.Config{}, MultiConfig{MaxBatch: 64})

	pts := quantPoints(400, 2, 7)
	weights := make([]float64, len(pts))
	rng := rand.New(rand.NewSource(11))
	for i := range weights {
		weights[i] = wire.Quantize(0.5 + rng.Float64()*4)
	}
	const reqBatch = 80
	for off := 0; off < len(pts); off += reqBatch {
		end := off + reqBatch
		if end > len(pts) {
			end = len(pts)
		}
		postWire(t, ts.URL+"/streams/wdiff-nd/ingest", false, pts[off:end], weights[off:end])
		postWire(t, ts.URL+"/streams/wdiff-bin/ingest", true, pts[off:end], weights[off:end])
	}
	assertEquivalent(t, "weighted", pts, ts.URL, "wdiff-nd", "wdiff-bin")
}

// TestBinaryIngestSingleStream exercises the legacy single-stream server
// binary path end-to-end: round trip through POST /ingest plus the
// malformed-body, empty-batch and wrong-dimension contracts.
func TestBinaryIngestSingleStream(t *testing.T) {
	srv := New(&sinkClusterer{}, Config{K: 2, Dim: 3, MaxBatch: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	pts := [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	if got := postWire(t, ts.URL+"/ingest", true, pts, nil); got != 3 {
		t.Fatalf("binary ingest acknowledged %d, want 3", got)
	}

	// Empty batch: valid, zero ingested.
	raw := make([]byte, 16)
	copy(raw, "SKMB")
	raw[4] = 1
	raw[8] = 3 // dim 3, count 0
	resp, err := http.Post(ts.URL+"/ingest", wire.ContentType, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]interface{}
	decodeJSON(t, resp, &out)
	if resp.StatusCode != http.StatusOK || out["ingested"].(float64) != 0 {
		t.Fatalf("empty batch: status %d body %v", resp.StatusCode, out)
	}

	// Wrong dimension: 400, nothing applied.
	before := srv.c.Count()
	bad, err := wire.EncodeBatch([][]float64{{1, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/ingest", wire.ContentType, bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, resp, &out)
	if resp.StatusCode != http.StatusBadRequest || out["ingested"].(float64) != 0 {
		t.Fatalf("dim mismatch: status %d body %v", resp.StatusCode, out)
	}
	if srv.c.Count() != before {
		t.Fatalf("dim mismatch applied points: %d -> %d", before, srv.c.Count())
	}

	// Truncated body: 400, nothing applied.
	good, err := wire.EncodeBatch(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/ingest", wire.ContentType, bytes.NewReader(good[:len(good)-2]))
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, resp, &out)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated: status %d body %v", resp.StatusCode, out)
	}
	if srv.c.Count() != before {
		t.Fatalf("truncated body applied points: %d -> %d", before, srv.c.Count())
	}
}

// TestBinaryIngestEmptyBatchNeverCreatesStream mirrors the ndjson
// empty-body rule on the multi-tenant route: a zero-count binary batch
// against a missing stream is 404, not a lazily created tenant.
func TestBinaryIngestEmptyBatchNeverCreatesStream(t *testing.T) {
	ts, _ := newMultiServer(t, registry.Config{}, MultiConfig{})
	raw := make([]byte, 16)
	copy(raw, "SKMB")
	raw[4] = 1
	raw[8] = 2
	resp, err := http.Post(ts.URL+"/streams/ghost/ingest", wire.ContentType, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]interface{}
	decodeJSON(t, resp, &out)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("empty binary batch on missing stream: status %d body %v, want 404", resp.StatusCode, out)
	}
	resp, m := getJSON(t, ts.URL+"/streams")
	if total := m["total"].(float64); total != 0 {
		t.Fatalf("stream registered by empty batch: %v (status %d)", m, resp.StatusCode)
	}
}

// TestIngestStagesMatchAcrossWires: an ndjson body is decoded in full
// before it is applied, as a binary one is, so on both servers the two
// wires record the same trace stages, wire-decode ahead of cluster-apply.
func TestIngestStagesMatchAcrossWires(t *testing.T) {
	pts := quantPoints(20, 3, 1)
	srv := New(&sinkClusterer{}, Config{K: 2})
	single := httptest.NewServer(srv.Handler())
	t.Cleanup(single.Close)
	multi, m := newMultiServer(t, registry.Config{}, MultiConfig{})
	// Create the stream first, so both measured requests take the
	// registry's resident path.
	postWire(t, multi.URL+"/streams/s/ingest", false, pts, nil)

	for _, tc := range []struct {
		name string
		url  string
		tr   *trace.Recorder
	}{
		{"Server", single.URL + "/ingest", srv.Traces()},
		{"Multi", multi.URL + "/streams/s/ingest", m.Traces()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sets [][]string
			for _, binary := range []bool{false, true} {
				before := len(tc.tr.Spans(trace.Filter{Endpoint: "ingest"}))
				postWire(t, tc.url, binary, pts, nil)
				var spans []trace.SpanData
				for deadline := time.Now().Add(5 * time.Second); len(spans) <= before; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("ingest span never recorded")
					}
					spans = tc.tr.Spans(trace.Filter{Endpoint: "ingest"})
				}
				var names []string
				for _, st := range spans[0].Stages {
					names = append(names, st.Name)
				}
				sets = append(sets, names)
			}
			if !reflect.DeepEqual(sets[0], sets[1]) {
				t.Fatalf("ndjson recorded stages %v, binary %v", sets[0], sets[1])
			}
			decode, apply := slices.Index(sets[0], "wire-decode"), slices.Index(sets[0], "cluster-apply")
			if decode < 0 || apply < decode {
				t.Fatalf("stages %v: want wire-decode, then cluster-apply", sets[0])
			}
		})
	}
}
