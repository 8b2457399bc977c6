package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"streamkm"
	"streamkm/internal/persist"
	"streamkm/internal/registry"
	"streamkm/internal/ring"
	"streamkm/internal/server"
	"streamkm/internal/wire"
)

// daemonRegistry builds the registry exactly as streamkmd's build does
// for the flags the benchmark passes (-k, -shards, and for churn
// -data-dir and -max-streams), with the New and Restore hooks timed and
// every backend they return wrapped for the tracer.
func daemonRegistry(tr *tracer, dataDir string, maxStreams int) (*registry.Registry, error) {
	base := streamkm.Config{Seed: 1, QueryRuns: 1}
	reg, err := registry.New(registry.Config{
		MaxResident: maxStreams,
		DataDir:     dataDir,
		Default:     registry.StreamConfig{Backend: string(streamkm.BackendConcurrent), Algo: "CC", K: k},
		New: func(id string, sc registry.StreamConfig) (registry.Backend, error) {
			end := tr.begin("registry.new", "", id)
			b, err := streamkm.Open(streamkm.SpecFromStreamConfig(sc, shards), base)
			end()
			if err != nil {
				return nil, err
			}
			return wrapBackend(b, tr, id)
		},
		Restore: func(id string, want registry.StreamConfig, r io.Reader) (registry.Backend, registry.StreamConfig, error) {
			end := tr.begin("registry.restore", "", id)
			b, err := streamkm.Restore(streamkm.SpecFromStreamConfig(want, 0), r, base)
			end()
			if err != nil {
				return nil, registry.StreamConfig{}, err
			}
			wb, err := wrapBackend(b, tr, id)
			return wb, b.Spec().StreamConfig(), err
		},
		Peek: func(r io.Reader) (registry.StreamConfig, int64, error) {
			meta, err := persist.PeekBackend(r)
			if err != nil {
				return registry.StreamConfig{}, 0, err
			}
			return registry.StreamConfig{
				Backend: meta.Type, Algo: meta.Algo, K: meta.K, Dim: meta.Dim,
				HalfLife: meta.HalfLife, HalfLifeSeconds: meta.HalfLifeSeconds, WindowN: meta.WindowN,
				PointsPerSec: meta.PointsPerSec, BytesPerSec: meta.BytesPerSec,
				MaxResidentBytes: meta.MaxResidentBytes,
			}, meta.Count, nil
		},
	})
	if err != nil {
		return nil, err
	}
	// The daemon materializes its default stream at boot and, when
	// persistent, checkpoints it at once.
	if err := reg.With("default", true, func(*registry.Stream, registry.Backend) error { return nil }); err != nil {
		return nil, err
	}
	if dataDir != "" {
		if _, err := reg.Checkpoint("default"); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// loopback is one in-process HTTP server on a loopback port.
type loopback struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns ErrServerClosed after stop
	}()
	return l, nil
}

func (l *loopback) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		l.srv.Close()
	}
	<-l.done
}

// stack is the streamkmd serving stack built in-process: registry,
// server.Multi and, for the routed workload, ring.Proxy.
type stack struct {
	regs    []*registry.Registry
	members []ring.Member
	proxies []*ring.Proxy
	servers []*loopback
	base    string
}

func startStack(w workload, tr *tracer, dir string) (*stack, error) {
	st := &stack{}
	for i := 0; i < w.Daemons; i++ {
		dataDir := ""
		if w.MaxStreams > 0 {
			dataDir = filepath.Join(dir, fmt.Sprintf("data-%d", i))
		}
		reg, err := daemonRegistry(tr, dataDir, w.MaxStreams)
		if err != nil {
			st.stop()
			return nil, err
		}
		m := server.NewMulti(reg, server.MultiConfig{DefaultStream: "default"})
		l, err := serveLoopback(tr.handler("server", m.Handler()))
		if err != nil {
			st.stop()
			return nil, err
		}
		st.regs = append(st.regs, reg)
		st.servers = append(st.servers, l)
		st.members = append(st.members, ring.Member{Name: fmt.Sprintf("d%d", i), URL: l.url})
	}
	st.base = st.servers[0].url
	if w.Daemons > 1 {
		url, err := st.addProxy(tr)
		if err != nil {
			st.stop()
			return nil, err
		}
		st.base = url
	}
	if err := createStreams(st.base, w); err != nil {
		st.stop()
		return nil, err
	}
	return st, nil
}

// addProxy puts a ring.Proxy, built as streamkm-router builds it, in
// front of the stack's members and returns its URL.
func (st *stack) addProxy(tr *tracer) (string, error) {
	p, err := ring.NewProxy(ring.ProxyConfig{Members: st.members, Client: &http.Client{Timeout: 30 * time.Second}})
	if err != nil {
		return "", err
	}
	if _, err := p.Rebalance(context.Background()); err != nil {
		return "", err
	}
	l, err := serveLoopback(tr.handler("ring", p.Handler()))
	if err != nil {
		return "", err
	}
	st.proxies = append(st.proxies, p)
	st.servers = append(st.servers, l)
	return l.url, nil
}

func (st *stack) stop() {
	for i := len(st.servers) - 1; i >= 0; i-- {
		st.servers[i].stop()
	}
}

// snapshot fetches a tenant's serialized state from whichever member
// holds it.
func (st *stack) snapshot(id string) ([]byte, error) {
	for _, reg := range st.regs {
		var buf bytes.Buffer
		err := reg.Snapshot(id, &buf)
		if err == nil {
			return buf.Bytes(), nil
		}
		if !errors.Is(err, registry.ErrNotFound) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("tenant %s on no member", id)
}

func runTraced(o options, w workload, runDir string, report map[string]any) (*result, error) {
	half := o.seconds / 2
	in, err := makeInputs(w, o.seed)
	if err != nil {
		return nil, err
	}

	// Untraced reference: the same phase against server processes.
	f, err := startFleet(o, w, filepath.Join(runDir, "untraced"))
	if err != nil {
		return nil, err
	}
	g := newGenerator(in, false)
	ph0 := g.run(f.base, half)
	chk0 := g.check(f.base, ph0)
	untracedStats := f.scrape()
	g.close()
	f.stop()

	// Traced serving half.
	tr := newTracer()
	st, err := startStack(w, tr, filepath.Join(runDir, "traced"))
	if err != nil {
		return nil, err
	}
	defer st.stop()
	gt := newGenerator(in, true)
	defer gt.close()
	ph1 := gt.run(st.base, half)
	checkBase := st.base
	if w.Daemons == 1 {
		// Route the final checks through a one-member router so the proxy
		// hop is timed on every workload.
		if checkBase, err = st.addProxy(tr); err != nil {
			return nil, err
		}
	}
	chk1 := gt.check(checkBase, ph1)

	tr.probe.Store(true)
	pr, err := runProbes(in, tr, st, filepath.Join(runDir, "probe"))
	if err != nil {
		return nil, err
	}
	at, err := algorithmHalf(in, ph1.Seqs, o.seed)
	if err != nil {
		return nil, err
	}

	spans := tr.snapshot()
	a := analyze(spans)
	layers, sources := perLayer(in, tr, st, a, pr, at)
	e0, e1 := endToEnd(ph0, chk0), endToEnd(ph1, chk1)
	for _, m := range []string{"ingest_points_per_s", "ingest_p50_ms", "query_p50_ms", "refresh_p50_ms"} {
		layers["traced."+m] = e1[m]
		over := e1[m].Value/e0[m].Value - 1
		if m == "ingest_points_per_s" {
			over = e0[m].Value/e1[m].Value - 1
		}
		layers["overhead."+m+"_pct"] = metric{100 * over, "%"}
	}
	for cls, c := range map[string]*class{"ingest": &ph1.Ingest, "centers": &ph1.Query, "refresh": &ph1.Refresh} {
		layers["coverage."+cls] = metric{a.coverage(c), "ratio"}
	}
	layers["client.late_p95_ms"] = metric{percentile(ph0.late(), 0.95), "ms"}
	layers["client.cpu_s"] = metric{ph0.CPU, "s"}

	if err := checkMetrics(layers, layerUnits); err != nil {
		return nil, err
	}
	if err := writeSpans(o, spans); err != nil {
		return nil, err
	}
	report["untraced_metrics"] = e0
	report["untraced_server_stats"] = untracedStats
	var tracedStats []registry.Stats
	for _, reg := range st.regs {
		tracedStats = append(tracedStats, reg.Stats())
	}
	report["traced_registry_stats"] = tracedStats
	report["traced_phase"] = phaseSummary(ph1)
	report["traced_checks"] = chk1
	report["layer_sources"] = sources
	report["spans"] = len(spans)
	res := finish(report, ph0, chk0, layers)
	a1, f1 := counts(ph1)
	res.Attempted += a1
	res.Failed += f1
	res.Correct = res.Correct && chk1.OK && f1 == 0
	return res, nil
}

func writeSpans(o options, spans []span) error {
	dir := filepath.Join(o.work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-spans.json", o.workload, o.seed)), raw, 0o644)
}

// probes are timings of layers taken by calling them directly, for layers
// a workload's serving path does not (or not only) exercise.
type probes struct {
	decodeUs    []float64
	decodeMBps  float64
	writeAtomic []float64
	snapBytes   []float64
}

func runProbes(in *inputs, tr *tracer, st *stack, dir string) (*probes, error) {
	pr := &probes{}
	// wire: decode every tenant's pre-encoded binary bodies.
	var bytesTotal, secs float64
	for round := 0; round < 3; round++ {
		for _, bodies := range in.Bin {
			for _, body := range bodies {
				t0 := time.Now()
				if _, err := wire.Decode(body, wire.Limits{}, nil); err != nil {
					return nil, fmt.Errorf("wire probe: %w", err)
				}
				d := time.Since(t0)
				pr.decodeUs = append(pr.decodeUs, float64(d.Nanoseconds())/1e3)
				bytesTotal += float64(len(body))
				secs += d.Seconds()
			}
		}
	}
	pr.decodeMBps = bytesTotal / 1e6 / secs

	// persist and registry: each tenant's final snapshot, written with
	// WriteFileAtomic and cycled through a one-slot registry so every
	// access restores one stream and hibernates another.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	type snap struct {
		id  string
		raw []byte
	}
	var snaps []snap
	for _, t := range in.W.Tenants {
		if len(snaps) == 8 {
			break
		}
		raw, err := st.snapshot(t.ID)
		if err != nil {
			return nil, err
		}
		snaps = append(snaps, snap{t.ID, raw})
		pr.snapBytes = append(pr.snapBytes, float64(len(raw)))
	}
	for round := 0; round < 3; round++ {
		for _, s := range snaps {
			t0 := time.Now()
			if _, err := persist.WriteFileAtomic(filepath.Join(dir, s.id+".probe"), func(w io.Writer) error {
				_, err := w.Write(s.raw)
				return err
			}); err != nil {
				return nil, fmt.Errorf("persist probe: %w", err)
			}
			pr.writeAtomic = append(pr.writeAtomic, ms(time.Since(t0)))
		}
	}
	reg, err := daemonRegistry(tr, filepath.Join(dir, "registry"), 1)
	if err != nil {
		return nil, err
	}
	for _, s := range snaps {
		if err := reg.Install(s.id, bytes.NewReader(s.raw)); err != nil {
			return nil, fmt.Errorf("registry probe: install %s: %w", s.id, err)
		}
	}
	for round := 0; round < 3; round++ {
		for _, s := range snaps {
			end := tr.begin("registry.with", "", s.id)
			err := reg.With(s.id, false, func(_ *registry.Stream, b registry.Backend) error {
				_ = b.Count()
				return nil
			})
			end()
			if err != nil {
				return nil, fmt.Errorf("registry probe: %w", err)
			}
		}
	}

	// backend: types the workload's tenants lack are driven directly.
	for _, typ := range []string{"concurrent", "decayed", "windowed"} {
		if hasType(in.W, typ) {
			continue
		}
		if err := probeBackend(in, tr, typ); err != nil {
			return nil, err
		}
	}
	return pr, nil
}

func hasType(w workload, typ string) bool {
	for _, t := range w.Tenants {
		if t.Type == typ {
			return true
		}
	}
	return false
}

func probeBackend(in *inputs, tr *tracer, typ string) error {
	spec := streamkm.BackendSpec{Type: streamkm.BackendType(typ), K: k, Shards: shards}
	switch typ {
	case "decayed":
		spec.HalfLife = 20000
	case "windowed":
		spec.WindowN = 20000
	}
	b, err := streamkm.Open(spec, streamkm.Config{Seed: 1, QueryRuns: 1})
	if err != nil {
		return err
	}
	rb, err := wrapBackend(b, tr, "probe-"+typ)
	if err != nil {
		return err
	}
	pool := in.Pools[0]
	for i := 0; i < in.W.Bodies; i++ {
		rb.AddBatch(pool[i*in.W.Batch : (i+1)*in.W.Batch])
		for q := 0; q < 5; q++ {
			rb.Centers()
		}
		rb.(refresher).Refresh()
	}
	return nil
}

// analysis indexes spans by parent and computes self times.
type analysis struct {
	spans []span
	kids  [][]int
	byRID map[string]int // outermost span of each request
}

func analyze(spans []span) *analysis {
	a := &analysis{spans: spans, kids: make([][]int, len(spans)), byRID: map[string]int{}}
	// A member's request span belongs to the router span of the same
	// trace id: the router forwards the client's trace.
	for i, s := range spans {
		if strings.HasPrefix(s.Name, "ring.") && s.RID != "" {
			a.byRID[s.RID] = i
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent < 0 && strings.HasPrefix(s.Name, "server.") && s.RID != "" {
			if p, ok := a.byRID[s.RID]; ok {
				s.Parent = p
			} else {
				a.byRID[s.RID] = i
			}
		}
		if s.Parent >= 0 {
			a.kids[s.Parent] = append(a.kids[s.Parent], i)
		}
	}
	return a
}

// self is a span's duration minus the time its children cover, in ms.
func (a *analysis) self(i int) float64 {
	s := a.spans[i]
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range a.kids[i] {
		lo, hi := max(a.spans[c].Start, s.Start), min(a.spans[c].End, s.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].lo < ivs[y].lo })
	var covered, end int64
	for _, v := range ivs {
		if v.lo < end {
			v.lo = end
		}
		if v.hi > v.lo {
			covered += v.hi - v.lo
			end = v.hi
		}
	}
	return float64(s.End-s.Start-covered) / 1e6
}

// coverage is the median, over a class's requests, of the share of the
// client-observed latency that the request's outermost span accounts for.
func (a *analysis) coverage(c *class) float64 {
	var ratios []float64
	for i, rid := range c.rids {
		if j, ok := a.byRID[rid]; ok && c.svc[i] > 0 {
			ratios = append(ratios, a.spans[j].ms()/c.svc[i])
		}
	}
	return median(ratios)
}

// pick returns the indices of spans named name, from the serving path
// when it has any and from the probes otherwise, and which it used.
func (a *analysis) pick(match func(string) bool) ([]int, string) {
	var serving, probe []int
	for i, s := range a.spans {
		if !match(s.Name) {
			continue
		}
		if s.Probe {
			probe = append(probe, i)
		} else {
			serving = append(serving, i)
		}
	}
	if len(serving) > 0 {
		return serving, "serving"
	}
	return probe, "probe"
}

func (a *analysis) durations(idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = a.spans[j].ms()
	}
	return out
}

func (a *analysis) selfs(idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = a.self(j)
	}
	return out
}

func named(name string) func(string) bool { return func(s string) bool { return s == name } }

// perLayer computes every per-layer metric and records where each came
// from: the traced serving half, a direct probe, or the algorithm half.
func perLayer(in *inputs, tr *tracer, st *stack, a *analysis, pr *probes, at *algoTimes) (map[string]metric, map[string]string) {
	out := map[string]metric{}
	src := map[string]string{}
	set := func(name, unit, source string, v float64) {
		out[name] = metric{v, unit}
		src[name] = source
	}
	for _, cls := range []string{"ingest", "centers", "refresh"} {
		idx, s := a.pick(named("server." + cls))
		set("server."+cls+".calls", "count", s, float64(len(idx)))
		set("server."+cls+".self_ms", "ms", s, median(a.selfs(idx)))
	}
	set("wire.decode_us", "us", "probe", median(pr.decodeUs))
	set("wire.decode_mb_per_s", "MB/s", "probe", pr.decodeMBps)

	var restores, hibernates int64
	for _, reg := range st.regs {
		lf := reg.Stats().Registry
		restores += lf.Restores
		hibernates += lf.Evictions
	}
	set("registry.restores", "count", "serving", float64(restores))
	set("registry.hibernates", "count", "serving", float64(hibernates))
	idx, s := a.pick(named("registry.restore"))
	set("registry.restore_ms", "ms", s, median(a.durations(idx)))
	idx, s = a.pick(func(n string) bool { return strings.HasSuffix(n, ".snapshot") })
	set("registry.snapshot_ms", "ms", s, median(a.durations(idx)))
	idx, s = a.pick(named("registry.with"))
	set("registry.overhead_ms", "ms", s, median(a.selfs(idx)))
	set("persist.write_atomic_ms", "ms", "probe", median(pr.writeAtomic))
	set("persist.snapshot_bytes", "bytes", "probe", median(pr.snapBytes))

	for _, typ := range []string{"concurrent", "decayed", "windowed"} {
		p := "backend." + typ + "."
		idx, s := a.pick(named(p + "add_batch"))
		set(p+"add_batch_us", "us", s, 1000*median(a.durations(idx)))
		idx, s = a.pick(named(p + "centers"))
		set(p+"centers_us", "us", s, 1000*median(a.durations(idx)))
		idx, s = a.pick(named(p + "refresh"))
		set(p+"refresh_ms", "ms", s, median(a.durations(idx)))
		hits, total, stored, s := backendTotals(tr, typ)
		set(p+"cache_hit_ratio", "ratio", s, ratio(hits, total))
		set(p+"points_stored", "points", s, float64(stored))
		set("lanes."+typ+".merge_ms", "ms", "algorithm", median(at.merge[typ]))
	}
	set("core.update_us_per_point", "us", "algorithm", median(at.updateUs))
	set("core.coreset_union_ms", "ms", "algorithm", median(at.union))
	set("core.cc_hit_ratio", "ratio", "algorithm", ratio(at.ccHits, at.ccQueries))
	set("coreset.builds", "count", "algorithm", float64(len(at.builds)))
	set("coreset.build_ms", "ms", "algorithm", median(at.builds))
	set("kmeans.query_ms", "ms", "algorithm", median(at.query))
	set("geom.nearest_ns_per_point", "ns", "algorithm", median(at.nearestNs))

	idx, s = a.pick(func(n string) bool { return strings.HasPrefix(n, "ring.") })
	set("ring.proxy_hop_ms", "ms", s, median(a.selfs(idx)))
	var proxyErrors int64
	for _, p := range st.proxies {
		proxyErrors += p.Stats().ProxyErrors
	}
	set("ring.proxy_errors", "count", "serving", float64(proxyErrors))
	return out, src
}

// backendTotals sums cache counters over every backend of a type the
// serving half created (the probe's when there are none) and stored
// points over the latest backend of each tenant.
func backendTotals(tr *tracer, typ string) (hits, total, stored int64, source string) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, probe := range []bool{false, true} {
		latest := map[string]*tracedBackend{}
		for _, b := range tr.backends {
			if b.typ != typ || b.probe != probe {
				continue
			}
			h, m := b.CacheStats()
			hits += h
			total += h + m
			latest[b.tenant] = b
		}
		for _, b := range latest {
			stored += int64(b.PointsStored())
		}
		if len(latest) > 0 {
			if probe {
				return hits, total, stored, "probe"
			}
			return hits, total, stored, "serving"
		}
	}
	return 0, 0, 0, "none"
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
