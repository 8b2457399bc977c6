package main

import (
	"encoding/json"
	"os"
	"testing"

	"streamkm"
	"streamkm/internal/registry"
	"streamkm/internal/server"
)

// The traced run must take the daemon's code paths: the server and the
// registry pick them by asserting optional interfaces on the backend, so
// a wrapper must have exactly the interfaces of the backend it wraps.
func TestWrapperMirrorsOptionalInterfaces(t *testing.T) {
	has := map[string]func(any) bool{
		"server.Clusterer":        func(x any) bool { _, ok := x.(server.Clusterer); return ok },
		"server.WeightedAdder":    func(x any) bool { _, ok := x.(server.WeightedAdder); return ok },
		"server.Refresher":        func(x any) bool { _, ok := x.(server.Refresher); return ok },
		"server.ContextCenterer":  func(x any) bool { _, ok := x.(server.ContextCenterer); return ok },
		"server.ContextRefresher": func(x any) bool { _, ok := x.(server.ContextRefresher); return ok },
		"server.CacheStater":      func(x any) bool { _, ok := x.(server.CacheStater); return ok },
		"server.Snapshotter":      func(x any) bool { _, ok := x.(server.Snapshotter); return ok },
		"registry.Backend":        func(x any) bool { _, ok := x.(registry.Backend); return ok },
		"registry.Snapshotter":    func(x any) bool { _, ok := x.(registry.Snapshotter); return ok },
		"registry.Sharder":        func(x any) bool { _, ok := x.(registry.Sharder); return ok },
		"streamkm.Backend":        func(x any) bool { _, ok := x.(streamkm.Backend); return ok },
	}
	specs := map[string]streamkm.BackendSpec{
		"concurrent":       {Type: streamkm.BackendConcurrent, K: 3},
		"concurrent-quota": {Type: streamkm.BackendConcurrent, K: 3, PointsPerSec: 1000},
		"decayed":          {Type: streamkm.BackendDecayed, K: 3, HalfLife: 100},
		"decayed-wall":     {Type: streamkm.BackendDecayed, K: 3, HalfLifeSeconds: 60},
		"windowed":         {Type: streamkm.BackendWindowed, K: 3, WindowN: 100},
	}
	tr := newTracer()
	for name, spec := range specs {
		b, err := streamkm.Open(spec, streamkm.Config{Seed: 1})
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		w, err := wrapBackend(b, tr, name)
		if err != nil {
			t.Fatalf("%s: wrap: %v", name, err)
		}
		for iface, ok := range has {
			if ok(b) != ok(w) {
				t.Errorf("%s (%T): backend has %s = %v, wrapper %v", name, b, iface, ok(b), ok(w))
			}
		}
	}
}

func TestWrapperRecordsSpans(t *testing.T) {
	tr := newTracer()
	b, err := streamkm.Open(streamkm.BackendSpec{Type: streamkm.BackendWindowed, K: 2, WindowN: 50}, streamkm.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w, err := wrapBackend(b, tr, "w")
	if err != nil {
		t.Fatal(err)
	}
	end := tr.begin("server.ingest", "rid", "w")
	w.AddBatch([][]float64{{1, 2}, {3, 4}, {5, 6}})
	end()
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Name != "backend.windowed.add_batch" || spans[1].Parent != 0 || spans[1].RID != "rid" {
		t.Fatalf("spans = %+v", spans)
	}
	a := analyze(spans)
	if self, total := a.self(0), spans[0].ms(); self > total || self < 0 {
		t.Fatalf("self %v of a %v ms span", self, total)
	}
}

// BENCHMARK.json and the benchmark program must declare the same metrics
// and workloads.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, list := range []struct {
		got  []struct{ Name, Unit string }
		want map[string]string
	}{{b.EndToEnd, e2eUnits}, {b.PerLayer, layerUnits}} {
		ms := map[string]metric{}
		for _, m := range list.got {
			ms[m.Name] = metric{Unit: m.Unit}
		}
		if err := checkMetrics(ms, list.want); err != nil {
			t.Error(err)
		}
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to the benchmark", w.Name)
		}
	}
}
