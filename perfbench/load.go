package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"streamkm/internal/trace"
	"streamkm/internal/wire"
)

// class accumulates one request class's outcomes.
type class struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu   sync.Mutex
	lat  []float64 // ms, successful requests only
	late []float64 // open loops: ms the generator woke after a request was due

	// Traced runs: each sample's trace id and its latency from the moment
	// it was sent, which the server-side spans can account for.
	rids []string
	svc  []float64
}

func (c *class) record(lat float64, rid string, svc float64) {
	c.mu.Lock()
	c.lat = append(c.lat, lat)
	if rid != "" {
		c.rids = append(c.rids, rid)
		c.svc = append(c.svc, svc)
	}
	c.mu.Unlock()
}

func (c *class) addLate(ms float64) {
	c.mu.Lock()
	c.late = append(c.late, ms)
	c.mu.Unlock()
}

// phase is the outcome of one timed phase.
type phase struct {
	Elapsed float64 // seconds from the first request until the last ingest returned
	CPU     float64 // generator CPU seconds (user+system) spent in the phase
	Acked   []int64 // per tenant: points the server acknowledged
	Seqs    [][]int // per tenant: sequence numbers of fully acknowledged requests, in send order
	PerSec  []int64 // points acknowledged in each second of the phase

	Ingest, Query, Refresh class
}

func (ph *phase) ackedTotal() int64 {
	var n int64
	for _, a := range ph.Acked {
		n += a
	}
	return n
}

func (ph *phase) classes() []*class { return []*class{&ph.Ingest, &ph.Query, &ph.Refresh} }

func (ph *phase) late() []float64 {
	var all []float64
	for _, c := range ph.classes() {
		all = append(all, c.late...)
	}
	return all
}

// generator sends a workload's pre-encoded requests. Each request class
// has its own client holding at most one connection per CPU.
type generator struct {
	in     *inputs
	traced bool // stamp a fresh traceparent on every request so server spans join it

	ingest, query, refresh *http.Client
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}
}

func newGenerator(in *inputs, traced bool) *generator {
	n := nprocs()
	return &generator{in: in, traced: traced,
		ingest: newClient(n), query: newClient(n), refresh: newClient(n)}
}

func (g *generator) close() {
	for _, c := range []*http.Client{g.ingest, g.query, g.refresh} {
		c.CloseIdleConnections()
	}
}

// send issues one request and reads the whole response. rid is the trace
// id stamped on it, empty when the generator runs untraced.
func (g *generator) send(c *http.Client, method, url, ctype string, body []byte) (int, []byte, string, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, "", err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	rid := ""
	if g.traced {
		tid := trace.NewTraceID()
		rid = tid.String()
		req.Header.Set(trace.Header, trace.Format(tid, trace.NewSpanID(), 1))
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, rid, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, rid, err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// run drives base for secs seconds: ingest in the workload's loop, plain
// queries and forced refreshes in open loops. No error aborts the phase;
// every request counts as attempted, and as failed unless it got a 2xx.
func (g *generator) run(base string, secs float64) *phase {
	w := g.in.W
	nt := len(w.Tenants)
	ph := &phase{Acked: make([]int64, nt), Seqs: make([][]int, nt)}
	var seqMu sync.Mutex
	ctype := "application/x-ndjson"
	if w.Wire == "binary" {
		ctype = wire.ContentType
	}

	start := time.Now()
	var lastJob atomic.Int64 // the ingest job that completed last
	ingestJob := func(j int, from time.Time) {
		defer lastJob.Store(int64(j))
		t, s := j%nt, j/nt
		ph.Ingest.attempted.Add(1)
		url := base + "/streams/" + w.Tenants[t].ID + "/ingest"
		sent := time.Now()
		status, raw, rid, err := g.send(g.ingest, http.MethodPost, url, ctype, g.in.Wire[t][s%w.Bodies])
		lat, svc := ms(time.Since(from)), ms(time.Since(sent))
		var body struct {
			Ingested int64 `json:"ingested"`
		}
		if err == nil {
			err = json.Unmarshal(raw, &body)
		}
		seqMu.Lock()
		sec := int(time.Since(start) / time.Second)
		for len(ph.PerSec) <= sec {
			ph.PerSec = append(ph.PerSec, 0)
		}
		ph.PerSec[sec] += body.Ingested
		ph.Acked[t] += body.Ingested
		if err == nil && status == http.StatusOK {
			ph.Seqs[t] = append(ph.Seqs[t], s)
		}
		seqMu.Unlock()
		if err != nil || status != http.StatusOK {
			ph.Ingest.failed.Add(1)
			return
		}
		ph.Ingest.record(lat, rid, svc)
	}
	queryJob := func(cl *class, c *http.Client, suffix string, hot bool) func(int, time.Time) {
		return func(i int, due time.Time) {
			cl.attempted.Add(1)
			t := i % nt
			if hot {
				t = int(lastJob.Load()) % nt
			}
			url := base + "/streams/" + w.Tenants[t].ID + "/centers" + suffix
			sent := time.Now()
			status, _, rid, err := g.send(c, http.MethodGet, url, "", nil)
			if err != nil || status != http.StatusOK {
				cl.failed.Add(1)
				return
			}
			cl.record(ms(time.Since(due)), rid, ms(time.Since(sent)))
		}
	}

	cpu0 := cpuSeconds()
	end := start.Add(time.Duration(secs * float64(time.Second)))
	var queries sync.WaitGroup
	queries.Add(2)
	go func() {
		defer queries.Done()
		openLoop(start, end, w.QueryRate, nprocs(), &ph.Query, queryJob(&ph.Query, g.query, "", false))
	}()
	go func() {
		defer queries.Done()
		openLoop(start, end, w.RefreshRate, nprocs(), &ph.Refresh, queryJob(&ph.Refresh, g.refresh, "?refresh=1", w.RefreshHot))
	}()
	if w.Conns > 0 {
		var next atomic.Int64
		var workers sync.WaitGroup
		for i := 0; i < w.Conns; i++ {
			workers.Add(1)
			go func() {
				defer workers.Done()
				for time.Now().Before(end) {
					ingestJob(int(next.Add(1)-1), time.Now())
				}
			}()
		}
		workers.Wait()
	} else {
		openLoop(start, end, w.IngestRate, nprocs(), &ph.Ingest, ingestJob)
	}
	ph.Elapsed = time.Since(start).Seconds()
	queries.Wait()
	ph.CPU = cpuSeconds() - cpu0
	for _, s := range ph.Seqs {
		sort.Ints(s)
	}
	return ph
}

// openLoop calls fn for request i at start + i/rate until end, on up to
// conns requests in flight. A request that falls due while all conns are
// busy is sent late and timed from when it was due; when the generator
// itself wakes after the due time, the delay is recorded as generator
// lateness.
func openLoop(start, end time.Time, rate float64, conns int, cl *class, fn func(int, time.Time)) {
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				fn(j.i, j.due)
			}
		}()
	}
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
			cl.addLate(ms(time.Since(due)))
		}
		jobs <- job{i, due}
	}
	close(jobs)
	wg.Wait()
}

// checks is the outcome of the output checks after a timed phase.
type checks struct {
	OK         bool      `json:"ok"`
	Problems   []string  `json:"problems,omitempty"`
	CostRatios []float64 `json:"cost_ratios"`
	CostRatio  float64   `json:"cost_ratio"`
}

// Every tenant's cost ratio must fall inside this band. Query-time
// k-means is one k-means++ seeding without Lloyd over a coreset, so it
// costs more than the offline reference: 1.4 to 4.1 were seen, against
// the 8(ln k + 2) ~ 34 that k-means++ guarantees in expectation.
const costLo, costHi = 0.5, 8.0

// checkRefreshes is how many forced refreshes the checks send each
// tenant. Every refresh reseeds the query k-means, so a tenant's cost
// ratio is the median over them.
const checkRefreshes = 9

// check forces refreshes of every tenant, outside the latency statistics,
// and verifies that each reports a count equal to the acknowledged points
// and k centers, and that their cost over the tenant's reference set
// stays within the band around the offline reference.
func (g *generator) check(base string, ph *phase) checks {
	w := g.in.W
	var res checks
	for t, tn := range w.Tenants {
		wts := refWeights(w, tn, ph.Seqs[t])
		pool := g.in.Pools[t]
		refCost := ssq(pool, wts, g.in.Ref[t])
		var ratios []float64
		for r := 0; r < checkRefreshes; r++ {
			centers, err := g.refreshCenters(base, tn.ID, ph.Acked[t])
			if err != nil {
				res.Problems = append(res.Problems, fmt.Sprintf("%s: %v", tn.ID, err))
				break
			}
			ratios = append(ratios, ssq(pool, wts, centers)/refCost)
		}
		if len(ratios) < checkRefreshes {
			continue
		}
		ratio := median(ratios)
		res.CostRatios = append(res.CostRatios, ratio)
		if !(ratio >= costLo && ratio <= costHi) {
			res.Problems = append(res.Problems, fmt.Sprintf("%s: cost ratio %.3f outside [%v, %v]", tn.ID, ratio, costLo, costHi))
		}
	}
	res.CostRatio = median(res.CostRatios)
	res.OK = len(res.Problems) == 0
	return res
}

// refreshCenters forces one refresh and checks its count and center
// count.
func (g *generator) refreshCenters(base, id string, acked int64) ([][]float64, error) {
	status, raw, _, err := g.send(g.refresh, http.MethodGet, base+"/streams/"+id+"/centers?refresh=1", "", nil)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("final refresh: status %d, error %v", status, err)
	}
	var body struct {
		Count   int64       `json:"count"`
		Centers [][]float64 `json:"centers"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		return nil, fmt.Errorf("final refresh: %w", err)
	}
	if body.Count != acked {
		return nil, fmt.Errorf("count %d, acknowledged %d", body.Count, acked)
	}
	if len(body.Centers) != k {
		return nil, fmt.Errorf("%d centers, want %d", len(body.Centers), k)
	}
	return body.Centers, nil
}

// scrape fetches a daemon's /stats: lifecycle, checkpoint, residency and
// per-endpoint counters.
func scrape(url string) map[string]any {
	c := &http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get(url + "/stats")
	if err != nil {
		return map[string]any{"error": err.Error()}
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return map[string]any{"error": err.Error()}
	}
	return m
}
