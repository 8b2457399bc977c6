package server

import (
	"net/http"
	"testing"

	"streamkm/internal/registry"
)

// The ingest request caps on the default stream's alias route, POST
// /ingest; TestMultiIngestBodyLimit413 and TestMultiIngestPointLimit413
// pin the same 413s on /streams/{id}/ingest.

func TestIngestBodyLimit413(t *testing.T) {
	ts, _ := newMultiServer(t, registry.Config{}, MultiConfig{MaxBodyBytes: 64})
	resp, m := postIngest(t, ts, ndjson(100, 2, 1))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status %d, want 413 (%v)", resp.StatusCode, m)
	}
	// The body is buffered before anything is decoded, so an over-cap
	// body applies nothing.
	if n, ok := m["ingested"].(float64); !ok || n != 0 {
		t.Fatalf("413 response reports ingested %v, want 0: %v", m["ingested"], m)
	}
}

func TestIngestPointLimit413(t *testing.T) {
	ts, _ := newMultiServer(t, registry.Config{}, MultiConfig{MaxPoints: 8, MaxBatch: 4})
	resp, m := postIngest(t, ts, ndjson(40, 2, 1))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("too-many-points status %d, want 413 (%v)", resp.StatusCode, m)
	}
	if n := m["ingested"].(float64); n > 8 {
		t.Fatalf("applied %v points past the cap of 8", n)
	}
}

func TestIngestErrorBodiesIncludeIngested(t *testing.T) {
	// The client contract for every ndjson ingest error: the body always
	// carries how many points were applied before the failure, so a
	// client can resume without double-counting. A malformed line
	// mid-stream is the canonical partial-application case.
	ts, _ := newMultiServer(t, registry.Config{}, MultiConfig{})
	resp, m := postIngest(t, ts, "[1,2]\nnot-json\n[3,4]\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed line status %d, want 400 (%v)", resp.StatusCode, m)
	}
	n, ok := m["ingested"].(float64)
	if !ok {
		t.Fatalf("400 response lacks the applied count: %v", m)
	}
	if n != 1 {
		t.Fatalf("ingested = %v, want 1 (only the point before the bad line)", n)
	}
}

func TestIngestLimitsDisabled(t *testing.T) {
	// Negative caps disable the guards entirely.
	ts, _ := newMultiServer(t, registry.Config{}, MultiConfig{MaxBodyBytes: -1, MaxPoints: -1})
	resp, m := postIngest(t, ts, ndjson(2000, 2, 1))
	if resp.StatusCode != http.StatusOK || m["ingested"].(float64) != 2000 {
		t.Fatalf("uncapped ingest: %d %v", resp.StatusCode, m)
	}
}

func TestIngestUnderDefaultLimitsUnaffected(t *testing.T) {
	ts, _ := newMultiServer(t, registry.Config{}, MultiConfig{})
	resp, m := postIngest(t, ts, ndjson(500, 2, 1))
	if resp.StatusCode != http.StatusOK || m["ingested"].(float64) != 500 {
		t.Fatalf("default-capped ingest: %d %v", resp.StatusCode, m)
	}
}
