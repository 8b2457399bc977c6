package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"streamkm"
	"streamkm/internal/persist"
	"streamkm/internal/registry"
)

// streamkmRegistry wires a registry to real streamkm backends through the
// spec-driven factory — the production pairing the daemon uses. Tenants
// can select any backend variant via their stream configuration.
func streamkmRegistry(t testing.TB, cfg registry.Config) *registry.Registry {
	t.Helper()
	if cfg.Default == (registry.StreamConfig{}) {
		cfg.Default = registry.StreamConfig{Algo: "CC", K: 3}
	}
	base := streamkm.Config{BucketSize: 20, Seed: 7}
	cfg.New = func(id string, sc registry.StreamConfig) (registry.Backend, error) {
		return streamkm.Open(streamkm.SpecFromStreamConfig(sc, 2), base)
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
			PointsPerSec: m.PointsPerSec, BytesPerSec: m.BytesPerSec,
			MaxResidentBytes: m.MaxResidentBytes,
		}, m.Count, nil
	}
	reg, err := registry.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func newMultiServer(t testing.TB, regCfg registry.Config, cfg MultiConfig) (*httptest.Server, *Multi) {
	t.Helper()
	m := NewMulti(streamkmRegistry(t, regCfg), cfg)
	ts := httptest.NewServer(m.Handler())
	t.Cleanup(ts.Close)
	return ts, m
}

func pointsNDJSON(pts [][]float64) string {
	var b strings.Builder
	for _, p := range pts {
		b.WriteByte('[')
		for j, x := range p {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%v", x)
		}
		b.WriteString("]\n")
	}
	return b.String()
}

func TestMultiLazyIngestAndCenters(t *testing.T) {
	ts, _ := newMultiServer(t, registry.Config{}, MultiConfig{})

	resp, err := http.Post(ts.URL+"/streams/t1/ingest", "application/x-ndjson",
		strings.NewReader(ndjson(600, 2, 1)))
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]interface{}
	decodeJSON(t, resp, &body)
	if resp.StatusCode != 200 || body["ingested"].(float64) != 600 || body["stream"] != "t1" {
		t.Fatalf("lazy ingest: status %d body %v", resp.StatusCode, body)
	}

	resp, m := getJSON(t, ts.URL+"/streams/t1/centers")
	if resp.StatusCode != 200 {
		t.Fatalf("centers status %d: %v", resp.StatusCode, m)
	}
	if cs := m["centers"].([]interface{}); len(cs) != 3 {
		t.Fatalf("%d centers, want 3", len(cs))
	}
	if m["count"].(float64) != 600 || m["stream"] != "t1" {
		t.Fatalf("centers response %v", m)
	}

	// Queries never create tenants; bad ids are rejected up front.
	resp, _ = getJSON(t, ts.URL+"/streams/nope/centers")
	if resp.StatusCode != 404 {
		t.Fatalf("unknown stream centers status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/streams/..%2Fetc/ingest", "application/x-ndjson",
		strings.NewReader("[1,2]\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 400 && resp.StatusCode != 404 {
		t.Fatalf("traversal id status %d, want 400/404", resp.StatusCode)
	}
}

func decodeJSON(t *testing.T, resp *http.Response, v interface{}) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
}

// TestMultiRootAliasesDefaultStream: each single-stream alias and its
// /streams/default/... twin are one handler. The aliased request and the
// same request on the twin answer with the same body fields, and move
// the same /stats endpoint counters and the same
// streamkm_tenant_*{stream="default"} series.
func TestMultiRootAliasesDefaultStream(t *testing.T) {
	ts, m := newMultiServer(t, registry.Config{DataDir: t.TempDir()}, MultiConfig{})
	tr := m.Traces()
	// settle waits until every accounted request has recorded its
	// counters: observe ends a request's span only after recording it.
	settle := func() {
		for deadline := time.Now().Add(5 * time.Second); tr.Completed() < tr.Started(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("requests never completed")
			}
		}
	}
	// counters flattens the request accounting both routes must move
	// alike; latency buckets and sums are left out, as they vary with
	// timing.
	counters := func() map[string]float64 {
		settle()
		_, st := getJSON(t, ts.URL+"/stats")
		settle()
		out := map[string]float64{}
		for name, ep := range st["endpoints"].(map[string]interface{}) {
			for _, f := range []string{"requests", "errors", "items"} {
				v, _ := ep.(map[string]interface{})[f].(float64) // items is omitted at 0
				out["endpoints."+name+"."+f] = v
			}
		}
		for k, v := range scrapeProm(t, ts.URL) {
			if strings.HasPrefix(k, "streamkm_tenant_") && strings.Contains(k, `stream="default"`) &&
				!strings.Contains(k, "_bucket{") && !strings.Contains(k, "_sum{") {
				out[k] = v
			}
		}
		return out
	}
	// call sends one request and describes its answer: the status, the
	// content type and the body's JSON fields, or for a snapshot
	// download the point count it restores to.
	call := func(method, path, body string) string {
		resp, raw := doReq(t, ts.Client(), method, ts.URL+path, body)
		desc := fmt.Sprintf("%d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
		if resp.Header.Get("Content-Type") == "application/octet-stream" {
			c, err := streamkm.NewConcurrentFromSnapshot(bytes.NewReader(raw), streamkm.Config{})
			if err != nil {
				t.Fatalf("%s %s: snapshot does not restore: %v", method, path, err)
			}
			return fmt.Sprintf("%s snapshot of %d points", desc, c.Count())
		}
		var fields map[string]interface{}
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatalf("%s %s: response not JSON: %v", method, path, err)
		}
		if fields["stream"] != "default" {
			t.Fatalf("%s %s: answered for stream %v", method, path, fields["stream"])
		}
		keys := make([]string, 0, len(fields))
		for k := range fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return fmt.Sprintf("%s %v", desc, keys)
	}
	delta := func(before, after map[string]float64) map[string]float64 {
		out := map[string]float64{}
		for k, v := range after {
			if d := v - before[k]; d != 0 {
				out[k] = d
			}
		}
		return out
	}

	body := ndjson(100, 2, 3)
	for _, tc := range []struct {
		method, alias, twin, body string
	}{
		{http.MethodPost, "/ingest", "/streams/default/ingest", body},
		{http.MethodGet, "/centers", "/streams/default/centers", ""},
		{http.MethodGet, "/snapshot", "/streams/default/snapshot", ""},
		{http.MethodPost, "/snapshot", "/streams/default/snapshot", ""},
	} {
		c0 := counters()
		aliased := call(tc.method, tc.alias, tc.body)
		c1 := counters()
		twin := call(tc.method, tc.twin, tc.body)
		c2 := counters()
		if aliased != twin {
			t.Errorf("%s %s answered %s, %s answered %s", tc.method, tc.alias, aliased, tc.twin, twin)
		}
		if !strings.HasPrefix(aliased, "200 ") {
			t.Errorf("%s %s: %s, want 200", tc.method, tc.alias, aliased)
		}
		if da, dt := delta(c0, c1), delta(c1, c2); !reflect.DeepEqual(da, dt) {
			t.Errorf("%s %s moved counters %v, %s moved %v", tc.method, tc.alias, da, tc.twin, dt)
		}
	}
	// Both ingests reached the one default stream.
	if _, st := getJSON(t, ts.URL+"/streams/default/stats"); st["count"].(float64) != 200 {
		t.Fatalf("default stream count %v, want 200", st["count"])
	}
}

func TestMultiExplicitCreateAndDelete(t *testing.T) {
	ts, _ := newMultiServer(t, registry.Config{DataDir: t.TempDir()}, MultiConfig{})
	put := func(id, body string) *http.Response {
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/streams/"+id, strings.NewReader(body))
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := put("custom", `{"algo":"RCC","k":5}`)
	var in registry.Info
	decodeJSON(t, resp, &in)
	if resp.StatusCode != 201 || in.Algo != "RCC" || in.K != 5 || !in.Resident {
		t.Fatalf("create: %d %+v", resp.StatusCode, in)
	}
	resp = put("custom", `{"algo":"CC","k":2}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 409 {
		t.Fatalf("duplicate create status %d, want 409", resp.StatusCode)
	}
	resp = put("bogus", `{"algo":"NoSuchAlgo","k":2}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad algo create status %d, want 400", resp.StatusCode)
	}

	// The created stream answers with its own k.
	resp, err := http.Post(ts.URL+"/streams/custom/ingest", "application/x-ndjson",
		strings.NewReader(ndjson(400, 2, 5)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	_, m := getJSON(t, ts.URL+"/streams/custom/centers")
	if cs := m["centers"].([]interface{}); len(cs) != 5 {
		t.Fatalf("custom stream answered %d centers, want 5", len(cs))
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/streams/custom", nil)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	resp, _ = getJSON(t, ts.URL+"/streams/custom/centers")
	if resp.StatusCode != 404 {
		t.Fatalf("deleted stream centers status %d, want 404", resp.StatusCode)
	}
}

func TestMultiListAndStats(t *testing.T) {
	ts, _ := newMultiServer(t, registry.Config{DataDir: t.TempDir(), MaxResident: 2}, MultiConfig{})
	for _, id := range []string{"a", "b", "c"} {
		resp, err := http.Post(ts.URL+"/streams/"+id+"/ingest", "application/x-ndjson",
			strings.NewReader(ndjson(50, 2, 1)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// Eviction is synchronous with the over-capacity ingest (enforceCap
	// runs before the request returns), so the /stats counters are already
	// settled here — no timing assumptions needed. Which stream lost the
	// LRU race depends on timestamp granularity; discover the victim from
	// the listing instead of assuming ingest order picked it.
	resp, m := getJSON(t, ts.URL+"/streams")
	if resp.StatusCode != 200 || m["total"].(float64) != 3 {
		t.Fatalf("list %d %v", resp.StatusCode, m)
	}
	victim := ""
	for _, s := range m["streams"].([]interface{}) {
		info := s.(map[string]interface{})
		if !info["resident"].(bool) {
			if victim != "" {
				t.Fatalf("more than one hibernated stream in %v", m)
			}
			victim = info["id"].(string)
		}
	}
	if victim == "" {
		t.Fatalf("no hibernated stream in %v", m)
	}

	resp, m = getJSON(t, ts.URL+"/stats")
	if resp.StatusCode != 200 {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	streams := m["streams"].(map[string]interface{})
	if streams["total"].(float64) != 3 || streams["resident"].(float64) != 2 || streams["hibernated"].(float64) != 1 {
		t.Fatalf("registry stats %v", streams)
	}
	life := m["lifecycle"].(map[string]interface{})
	if life["evictions"].(float64) < 1 {
		t.Fatalf("no evictions recorded: %v", life)
	}

	// Per-stream stat of the hibernated tenant must not warm it.
	resp, m = getJSON(t, ts.URL+"/streams/"+victim+"/stats")
	if resp.StatusCode != 200 {
		t.Fatalf("stream stats status %d", resp.StatusCode)
	}
	if m["resident"].(bool) {
		t.Fatalf("expected %s hibernated after LRU eviction: %v", victim, m)
	}
	if m["count"].(float64) != 50 {
		t.Fatalf("hibernated stat count %v, want 50", m["count"])
	}
	if _, ok := m["centers_cache"]; ok {
		t.Fatalf("cold stream reports centers_cache: %v", m)
	}
	resp, m = getJSON(t, ts.URL+"/streams/"+victim+"/stats")
	if m["resident"].(bool) {
		t.Fatal("statting a cold stream warmed it")
	}

	// Querying it restores it — and the count survived the round trip.
	resp, m = getJSON(t, ts.URL+"/streams/"+victim+"/centers")
	if resp.StatusCode != 200 || m["count"].(float64) != 50 {
		t.Fatalf("restored centers %d %v", resp.StatusCode, m)
	}
}

func TestMultiSnapshotEndpoints(t *testing.T) {
	dir := t.TempDir()
	ts, m := newMultiServer(t, registry.Config{DataDir: dir}, MultiConfig{})
	resp, err := http.Post(ts.URL+"/streams/s1/ingest", "application/x-ndjson",
		strings.NewReader(ndjson(120, 2, 9)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err = http.Post(ts.URL+"/streams/s1/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]interface{}
	decodeJSON(t, resp, &body)
	if resp.StatusCode != 200 || body["bytes"].(float64) <= 0 {
		t.Fatalf("snapshot post %d %v", resp.StatusCode, body)
	}

	resp, err = http.Get(ts.URL + "/streams/s1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || len(raw) == 0 {
		t.Fatalf("snapshot get %d (%d bytes)", resp.StatusCode, len(raw))
	}
	// The download restores into an equivalent clusterer.
	c, err := streamkm.NewConcurrentFromSnapshot(bytes.NewReader(raw), streamkm.Config{Seed: 3})
	if err != nil {
		t.Fatalf("downloaded snapshot does not restore: %v", err)
	}
	if c.Count() != 120 {
		t.Fatalf("downloaded snapshot count %d, want 120", c.Count())
	}
	_ = m
}

func TestMultiBadIngestDoesNotCreateStream(t *testing.T) {
	ts, m := newMultiServer(t, registry.Config{}, MultiConfig{})
	for _, body := range []string{"not json\n", `{"p":"nope"}`, ""} {
		resp, err := http.Post(ts.URL+"/streams/junk/ingest", "application/x-ndjson",
			strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("body %q: status 200, want an error", body)
		}
	}
	// None of the rejected bodies may have registered a tenant.
	if infos := m.Registry().List(); len(infos) != 0 {
		t.Fatalf("rejected ingests created streams: %+v", infos)
	}
	// An empty body against an existing stream is still a harmless no-op.
	seed, err := http.Post(ts.URL+"/streams/real/ingest", "application/x-ndjson",
		strings.NewReader(pointsNDJSON([][]float64{{1, 2}})))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, seed.Body)
	seed.Body.Close()
	if seed.StatusCode != http.StatusOK {
		t.Fatalf("seeding stream: status %d", seed.StatusCode)
	}
	resp, err := http.Post(ts.URL+"/streams/real/ingest", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]interface{}
	decodeJSON(t, resp, &out)
	if resp.StatusCode != http.StatusOK || out["ingested"].(float64) != 0 {
		t.Fatalf("empty body on existing stream: status %d body %v", resp.StatusCode, out)
	}
}

func TestMultiIngestBodyLimit413(t *testing.T) {
	ts, _ := newMultiServer(t, registry.Config{}, MultiConfig{MaxBodyBytes: 64})
	resp, err := http.Post(ts.URL+"/streams/t/ingest", "application/x-ndjson",
		strings.NewReader(ndjson(100, 2, 1)))
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]interface{}
	decodeJSON(t, resp, &body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status %d, want 413 (%v)", resp.StatusCode, body)
	}
	// The body is buffered before anything is decoded, so an over-cap
	// body applies nothing.
	if n, ok := body["ingested"].(float64); !ok || n != 0 {
		t.Fatalf("413 response reports ingested %v, want 0: %v", body["ingested"], body)
	}
}

func TestMultiIngestPointLimit413(t *testing.T) {
	ts, _ := newMultiServer(t, registry.Config{}, MultiConfig{MaxPoints: 10, MaxBatch: 4})
	resp, err := http.Post(ts.URL+"/streams/t/ingest", "application/x-ndjson",
		strings.NewReader(ndjson(50, 2, 1)))
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]interface{}
	decodeJSON(t, resp, &body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("too-many-points status %d, want 413 (%v)", resp.StatusCode, body)
	}
	if n := body["ingested"].(float64); n > 10 {
		t.Fatalf("applied %v points past the cap of 10", n)
	}
	// What was applied before the cap is kept, not rolled back.
	_, m := getJSON(t, ts.URL+"/streams/t/centers")
	if m["count"].(float64) != body["ingested"].(float64) {
		t.Fatalf("stream count %v != acknowledged %v", m["count"], body["ingested"])
	}
}
