// Command perfbench is the repository's serving benchmark. It runs one
// workload against fresh streamkmd processes (and a streamkm-router for
// the routed workload) over loopback HTTP, checks the answers, and prints
// one JSON result line. With -trace 1 it instead builds the same serving
// stack in-process with every layer wrapped in timing spans, replays the
// streams through the algorithm layers, and prints per-layer metrics.
//
// Run it through run.sh, which builds the binaries from source first:
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

var procStart = time.Now()

// setupReps is how many times a run sets itself up; setup_s reports the
// median.
const setupReps = 3

// lateLimitMs marks a run invalid when the generator's own lateness p95
// exceeds it: the latencies then describe the generator, not the server.
const lateLimitMs = 25

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	bin      string
	work     string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name: ingest, query, churn or routed")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding the streamkmd and streamkm-router binaries")
	flag.StringVar(&o.work, "work", ".bench_build", "scratch directory for server state, logs and results")
	flag.Parse()
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(o options) (*result, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want ingest, query, churn or routed)", o.workload)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive, got %v", o.seconds)
	}
	runDir := filepath.Join(o.work, "runs", fmt.Sprintf("%s-seed%d-%d", w.Name, o.seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	report := map[string]any{}
	var res *result
	var err error
	if o.trace == 1 {
		res, err = runTraced(o, w, runDir, report)
	} else {
		res, err = runUntraced(o, w, runDir, report)
	}
	if err != nil {
		return nil, err
	}
	report["env"] = stamp(runDir, o.seed, w, o.seconds)
	if err := writeReport(o, report); err != nil {
		return nil, err
	}
	return res, nil
}

// writeReport prints the detailed report and keeps a copy under
// <work>/results.
func writeReport(o options, report map[string]any) error {
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	dir := filepath.Join(o.work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, o.trace)
	return os.WriteFile(filepath.Join(dir, name), append(raw, '\n'), 0o644)
}

// fleet is the set of server processes serving one run.
type fleet struct {
	daemons []*proc
	router  *proc
	base    string // where tenant requests go
}

// startFleet starts the workload's daemons (and router) with empty state
// under dir and creates every tenant stream.
func startFleet(o options, w workload, dir string) (*fleet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &fleet{}
	for i := 0; i < w.Daemons; i++ {
		args := []string{"-k", strconv.Itoa(k), "-shards", strconv.Itoa(shards)}
		if w.MaxStreams > 0 {
			args = append(args, "-data-dir", filepath.Join(dir, fmt.Sprintf("data-%d", i)),
				"-max-streams", strconv.Itoa(w.MaxStreams))
		}
		p, err := startProc(fmt.Sprintf("streamkmd-%d", i), filepath.Join(o.bin, "streamkmd"), dir, args...)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.daemons = append(f.daemons, p)
	}
	f.base = f.daemons[0].url
	if w.Daemons > 1 {
		var members []string
		for i, d := range f.daemons {
			members = append(members, fmt.Sprintf("d%d=%s", i, d.url))
		}
		p, err := startProc("streamkm-router", filepath.Join(o.bin, "streamkm-router"), dir,
			"-members", strings.Join(members, ","))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.router = p
		f.base = p.url
	}
	if err := createStreams(f.base, w); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func createStreams(base string, w workload) error {
	c := &http.Client{Timeout: 30 * time.Second}
	for _, t := range w.Tenants {
		raw, err := json.Marshal(t.spec())
		if err != nil {
			return err
		}
		req, err := http.NewRequest(http.MethodPut, base+"/streams/"+t.ID, strings.NewReader(string(raw)))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.Do(req)
		if err != nil {
			return fmt.Errorf("create %s: %w", t.ID, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("create %s: status %d", t.ID, resp.StatusCode)
		}
	}
	return nil
}

func (f *fleet) stop() {
	if f.router != nil {
		f.router.stop()
	}
	for _, d := range f.daemons {
		d.stop()
	}
}

// rssMB sums the peak RSS of every server process.
func (f *fleet) rssMB() float64 {
	var s float64
	for _, d := range f.daemons {
		s += d.hwmMB()
	}
	if f.router != nil {
		s += f.router.hwmMB()
	}
	return s
}

func (f *fleet) scrape() map[string]any {
	out := map[string]any{}
	for _, d := range f.daemons {
		out[d.name] = scrape(d.url)
	}
	return out
}

// serve sets the run up setupReps times, keeping the last: it generates
// the inputs, starts the servers and creates every stream. The first
// set-up is timed from process start.
func serve(o options, w workload, runDir string) (*inputs, *fleet, []float64, error) {
	var times []float64
	t0 := procStart
	for r := 0; ; r++ {
		in, err := makeInputs(w, o.seed)
		if err != nil {
			return nil, nil, nil, err
		}
		dir := filepath.Join(runDir, fmt.Sprintf("setup-%d", r))
		f, err := startFleet(o, w, dir)
		if err != nil {
			return nil, nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if r == setupReps-1 {
			return in, f, times, nil
		}
		f.stop()
		os.RemoveAll(dir)
		t0 = time.Now()
	}
}

func runUntraced(o options, w workload, runDir string, report map[string]any) (*result, error) {
	in, f, setups, err := serve(o, w, runDir)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	before := f.scrape()
	g := newGenerator(in, false)
	defer g.close()
	ph := g.run(f.base, o.seconds)
	chk := g.check(f.base, ph)
	rss := f.rssMB()
	report["server_stats"] = map[string]any{"before": before, "after": f.scrape()}
	report["setups_s"] = setups
	e2e := endToEnd(ph, chk)
	e2e["setup_s"] = metric{median(setups), "s"}
	e2e["daemon_rss_mb"] = metric{rss, "MB"}
	if err := checkMetrics(e2e, e2eUnits); err != nil {
		return nil, err
	}
	return finish(report, ph, chk, e2e), nil
}

// endToEnd computes the phase's end-to-end metrics other than set-up
// time and memory.
func endToEnd(ph *phase, chk checks) map[string]metric {
	attempted, failed := counts(ph)
	return map[string]metric{
		"ingest_points_per_s": {float64(ph.ackedTotal()) / ph.Elapsed, "points/s"},
		"ingest_p50_ms":       {percentile(ph.Ingest.lat, 0.5), "ms"},
		"ingest_p95_ms":       {percentile(ph.Ingest.lat, 0.95), "ms"},
		"query_p50_ms":        {percentile(ph.Query.lat, 0.5), "ms"},
		"refresh_p50_ms":      {percentile(ph.Refresh.lat, 0.5), "ms"},
		"refresh_p95_ms":      {percentile(ph.Refresh.lat, 0.95), "ms"},
		"cost_ratio":          {chk.CostRatio, "ratio"},
		"served_ratio":        {float64(attempted-failed) / float64(attempted), "ratio"},
	}
}

func counts(ph *phase) (attempted, failed int64) {
	for _, c := range ph.classes() {
		attempted += c.attempted.Load()
		failed += c.failed.Load()
	}
	return attempted, failed
}

// finish records the phase summary in the report and builds the result
// line: correct only when the output checks pass, no request failed and
// the generator kept its schedule.
func finish(report map[string]any, ph *phase, chk checks, ms map[string]metric) *result {
	attempted, failed := counts(ph)
	latep95 := percentile(ph.late(), 0.95)
	valid := latep95 <= lateLimitMs
	report["phase"] = phaseSummary(ph)
	report["checks"] = chk
	report["valid"] = valid
	report["metrics"] = ms
	return &result{
		Correct:   chk.OK && failed == 0 && valid && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   ms,
	}
}

// phaseSummary states each request class's sample counts, including how
// many samples lie beyond each reported percentile.
func phaseSummary(ph *phase) map[string]any {
	cls := map[string]*class{"ingest": &ph.Ingest, "query": &ph.Query, "refresh": &ph.Refresh}
	out := map[string]any{
		"elapsed_s":       ph.Elapsed,
		"acked_points":    ph.ackedTotal(),
		"generator_cpu_s": ph.CPU,
		"late_p95_ms":     percentile(ph.late(), 0.95),
		"late_samples":    len(ph.late()),
		"points_per_sec":  ph.PerSec,
	}
	names := make([]string, 0, len(cls))
	for n := range cls {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := cls[n]
		out[n] = map[string]any{
			"attempted":  c.attempted.Load(),
			"failed":     c.failed.Load(),
			"samples":    len(c.lat),
			"beyond_p50": beyond(len(c.lat), 0.5),
			"beyond_p95": beyond(len(c.lat), 0.95),
			"p50_ms":     percentile(c.lat, 0.5),
			"p95_ms":     percentile(c.lat, 0.95),
			"max_ms":     percentile(c.lat, 1),
			"deciles_ms": deciles(c.lat),
		}
	}
	return out
}

func deciles(xs []float64) []float64 {
	out := make([]float64, 0, 9)
	for q := 1; q <= 9; q++ {
		out = append(out, percentile(xs, float64(q)/10))
	}
	return out
}
