package server

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"streamkm/internal/metrics"
	"streamkm/internal/registry"
)

// End-to-end quota behavior over HTTP: 429 + Retry-After on the wire,
// neighbor isolation, and the /metrics exposition staying consistent
// with what the requests actually did.

func postStreamIngest(t *testing.T, ts *httptest.Server, stream, body string) (*http.Response, map[string]interface{}) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/streams/"+stream+"/ingest", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]interface{}
	decodeJSON(t, resp, &m)
	return resp, m
}

func TestQuota429RetryAfterE2E(t *testing.T) {
	// points_per_sec 2: the burst is 2 tokens, so the second batch is
	// refused even on a slow CI runner (refilling a whole token takes
	// 500ms of wall clock).
	ts, _ := newMultiServer(t, registry.Config{
		Default: registry.StreamConfig{Algo: "CC", K: 3, PointsPerSec: 2},
	}, MultiConfig{})

	resp, m := postStreamIngest(t, ts, "a", "[1,2]\n[3,4]\n")
	if resp.StatusCode != http.StatusOK || m["ingested"].(float64) != 2 {
		t.Fatalf("first batch: %d %v", resp.StatusCode, m)
	}
	resp, m = postStreamIngest(t, ts, "a", "[5,6]\n")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("throttled batch status %d, want 429 (%v)", resp.StatusCode, m)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	if n, ok := m["ingested"].(float64); !ok || n != 0 {
		t.Fatalf("429 body must report ingested: 0, got %v", m)
	}
	if m["stream"] != "a" {
		t.Fatalf("429 body names stream %v, want a", m["stream"])
	}
	if !strings.Contains(m["error"].(string), "points_per_sec") {
		t.Fatalf("429 error does not name the quota: %v", m["error"])
	}

	// Neighbor isolation: stream b has its own untouched bucket.
	resp, m = postStreamIngest(t, ts, "b", "[1,2]\n[3,4]\n")
	if resp.StatusCode != http.StatusOK || m["ingested"].(float64) != 2 {
		t.Fatalf("neighbor throttled alongside the noisy tenant: %d %v", resp.StatusCode, m)
	}
}

func TestQuotaPerStreamOverrideE2E(t *testing.T) {
	// No daemon-wide default quota; one tenant opts into a cap via its
	// PUT spec, and only that tenant is throttled.
	ts, _ := newMultiServer(t, registry.Config{}, MultiConfig{})
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/streams/capped", strings.NewReader(`{"points_per_sec": 2}`))
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
		t.Fatalf("create capped stream: status %d", resp.StatusCode)
	}

	if resp, m := postStreamIngest(t, ts, "capped", "[1,2]\n[3,4]\n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("within burst: %d %v", resp.StatusCode, m)
	}
	if resp, _ := postStreamIngest(t, ts, "capped", "[5,6]\n"); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("capped stream status %d, want 429", resp.StatusCode)
	}
	if resp, m := postStreamIngest(t, ts, "free", "[1,2]\n[3,4]\n[5,6]\n"); resp.StatusCode != http.StatusOK || m["ingested"].(float64) != 3 {
		t.Fatalf("uncapped stream: %d %v", resp.StatusCode, m)
	}

	// The quota surfaces in the stream's stats.
	r2, err := http.Get(ts.URL + "/streams/capped/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st map[string]interface{}
	decodeJSON(t, r2, &st)
	r2.Body.Close()
	if st["points_per_sec"].(float64) != 2 {
		t.Fatalf("stats does not echo the quota: %v", st)
	}
}

// scrapeProm fetches and parses a /metrics exposition.
func scrapeProm(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	samples, err := metrics.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	return samples
}

func TestMultiMetricsScrapeE2E(t *testing.T) {
	ts, _ := newMultiServer(t, registry.Config{
		Default: registry.StreamConfig{Algo: "CC", K: 3, PointsPerSec: 2},
	}, MultiConfig{})

	// 2 OK ingests on a (3 points), 1 throttled on a, 1 OK on b; 1 query
	// on a.
	if resp, _ := postStreamIngest(t, ts, "a", "[1,2]\n[3,4]\n"); resp.StatusCode != http.StatusOK {
		t.Fatal("seed ingest a failed")
	}
	if resp, _ := postStreamIngest(t, ts, "a", "[5,6]\n"); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatal("expected throttle on a")
	}
	if resp, _ := postStreamIngest(t, ts, "b", "[7,8]\n"); resp.StatusCode != http.StatusOK {
		t.Fatal("seed ingest b failed")
	}
	if resp, err := http.Get(ts.URL + "/streams/a/centers"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("centers a: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}

	s := scrapeProm(t, ts.URL)

	// Endpoint counters agree with the requests issued, and each
	// histogram observed exactly one latency per request.
	if got := s[`streamkm_endpoint_requests_total{endpoint="ingest"}`]; got != 3 {
		t.Fatalf("ingest requests = %v, want 3", got)
	}
	if got := s[`streamkm_endpoint_errors_total{endpoint="ingest"}`]; got != 1 {
		t.Fatalf("ingest errors = %v, want 1", got)
	}
	if got := s[`streamkm_endpoint_latency_seconds_count{endpoint="ingest"}`]; got != 3 {
		t.Fatalf("ingest latency count = %v, want 3 (must match requests)", got)
	}
	if got := s[`streamkm_endpoint_requests_total{endpoint="centers"}`]; got != 1 {
		t.Fatalf("centers requests = %v, want 1", got)
	}

	// Per-tenant series: acknowledged points and request/latency
	// consistency per stream.
	if got := s[`streamkm_tenant_ingest_points_total{stream="a"}`]; got != 2 {
		t.Fatalf("tenant a points = %v, want 2", got)
	}
	if got := s[`streamkm_tenant_ingest_points_total{stream="b"}`]; got != 1 {
		t.Fatalf("tenant b points = %v, want 1", got)
	}
	if got := s[`streamkm_tenant_requests_total{op="ingest",stream="a"}`]; got != 2 {
		t.Fatalf("tenant a ingest requests = %v, want 2", got)
	}
	if got := s[`streamkm_tenant_errors_total{op="ingest",stream="a"}`]; got != 1 {
		t.Fatalf("tenant a ingest errors = %v, want 1", got)
	}
	if got := s[`streamkm_tenant_latency_seconds_count{op="ingest",stream="a"}`]; got != 2 {
		t.Fatalf("tenant a latency count = %v, want 2 (must match requests)", got)
	}
	if got := s[`streamkm_tenant_requests_total{op="query",stream="a"}`]; got != 1 {
		t.Fatalf("tenant a queries = %v, want 1", got)
	}

	// Registry families: both streams resident, one throttle accounted.
	if got := s[`streamkm_streams{state="resident"}`]; got != 2 {
		t.Fatalf("resident streams = %v, want 2", got)
	}
	if got := s[`streamkm_registry_events_total{event="throttle"}`]; got != 1 {
		t.Fatalf("throttle events = %v, want 1", got)
	}
	if _, ok := s["streamkm_uptime_seconds"]; !ok {
		t.Fatal("no uptime gauge")
	}
}

// TestSingleStreamMetricsScrapeE2E: an ingest through the default
// stream's alias route lands in the endpoint families.
func TestSingleStreamMetricsScrapeE2E(t *testing.T) {
	ts, _ := newTestServer(t, 3, 2)
	if resp, m := postIngest(t, ts, ndjson(10, 2, 1)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %v", resp.StatusCode, m)
	}
	s := scrapeProm(t, ts.URL)
	if got := s[`streamkm_endpoint_requests_total{endpoint="ingest"}`]; got != 1 {
		t.Fatalf("ingest requests = %v, want 1", got)
	}
	if got := s[`streamkm_endpoint_items_total{endpoint="ingest"}`]; got != 10 {
		t.Fatalf("ingest items = %v, want 10", got)
	}
	if got := s[`streamkm_endpoint_latency_seconds_count{endpoint="ingest"}`]; got != 1 {
		t.Fatalf("latency count = %v, want 1", got)
	}
}
