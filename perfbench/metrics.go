package main

import (
	"fmt"
	"sort"
)

// e2eUnits names every end-to-end metric an untraced run reports, with
// its unit. BENCHMARK.json lists the same names.
var e2eUnits = map[string]string{
	"ingest_points_per_s": "points/s",
	"ingest_p50_ms":       "ms",
	"ingest_p95_ms":       "ms",
	"query_p50_ms":        "ms",
	"refresh_p50_ms":      "ms",
	"refresh_p95_ms":      "ms",
	"cost_ratio":          "ratio",
	"served_ratio":        "ratio",
	"setup_s":             "s",
	"daemon_rss_mb":       "MB",
}

// layerUnits names every per-layer metric a traced run reports.
var layerUnits = func() map[string]string {
	m := map[string]string{
		"wire.decode_us":            "us",
		"wire.decode_mb_per_s":      "MB/s",
		"registry.restores":         "count",
		"registry.restore_ms":       "ms",
		"registry.hibernates":       "count",
		"registry.snapshot_ms":      "ms",
		"registry.overhead_ms":      "ms",
		"persist.write_atomic_ms":   "ms",
		"persist.snapshot_bytes":    "bytes",
		"core.update_us_per_point":  "us",
		"core.coreset_union_ms":     "ms",
		"core.cc_hit_ratio":         "ratio",
		"coreset.builds":            "count",
		"coreset.build_ms":          "ms",
		"kmeans.query_ms":           "ms",
		"geom.nearest_ns_per_point": "ns",
		"ring.proxy_hop_ms":         "ms",
		"ring.proxy_errors":         "count",
		"client.late_p95_ms":        "ms",
		"client.cpu_s":              "s",
		"coverage.ingest":           "ratio",
		"coverage.centers":          "ratio",
		"coverage.refresh":          "ratio",
	}
	for _, cls := range []string{"ingest", "centers", "refresh"} {
		m["server."+cls+".calls"] = "count"
		m["server."+cls+".self_ms"] = "ms"
	}
	for _, typ := range []string{"concurrent", "decayed", "windowed"} {
		p := "backend." + typ + "."
		m[p+"add_batch_us"] = "us"
		m[p+"centers_us"] = "us"
		m[p+"cache_hit_ratio"] = "ratio"
		m[p+"refresh_ms"] = "ms"
		m[p+"points_stored"] = "points"
		m["lanes."+typ+".merge_ms"] = "ms"
	}
	for _, e := range []string{"ingest_points_per_s", "ingest_p50_ms", "query_p50_ms", "refresh_p50_ms"} {
		m["traced."+e] = e2eUnits[e]
		m["overhead."+e+"_pct"] = "%"
	}
	return m
}()

// checkMetrics reports a metric set that differs from the declared one
// in any name or unit.
func checkMetrics(got map[string]metric, want map[string]string) error {
	var missing, extra []string
	for name, unit := range want {
		if m, ok := got[name]; !ok || m.Unit != unit {
			missing = append(missing, name)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(missing)
		sort.Strings(extra)
		return fmt.Errorf("metric set differs from the declared one: missing or mis-united %v, undeclared %v", missing, extra)
	}
	return nil
}
