package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamkm/internal/metrics"
	"streamkm/internal/registry"
	"streamkm/internal/trace"
)

// MultiConfig configures a Multi server.
type MultiConfig struct {
	// DefaultStream is the stream the legacy single-stream endpoints
	// (POST /ingest, GET /centers, GET/POST /snapshot) alias, so
	// pre-multi-tenant clients keep working unchanged. Default "default".
	DefaultStream string
	// MaxBatch caps how many points are applied to a backend per
	// AddBatch call while applying an ingest body. Default 512.
	MaxBatch int
	// MaxBodyBytes / MaxPoints are the per-request ingest caps (413
	// beyond; 0 = defaults of 64 MiB and ~1M points, negative = uncapped).
	MaxBodyBytes int64
	MaxPoints    int64
	// Trace receives one span per request and serves GET /debug/traces.
	// Nil allocates a private recorder with default capacities.
	Trace *trace.Recorder
	// SlowRequest, when positive, emits one structured log record (trace
	// id, stream, endpoint, dominant stage) per request slower than it.
	SlowRequest time.Duration
	// Logger receives slow-request records; nil uses slog.Default().
	Logger *slog.Logger
}

// Multi serves many independent streams from one process, routing
// /streams/{id}/... requests through a registry.Registry: streams are
// created lazily on first ingest (or explicitly via PUT), hibernated to
// disk when cold, and restored transparently on access. Create with
// NewMulti, mount via Handler. All handlers are safe for concurrent use.
type Multi struct {
	reg   *registry.Registry
	cfg   MultiConfig
	start time.Time
	mux   *http.ServeMux

	ingestStats   metrics.EndpointStats
	centersStats  metrics.EndpointStats
	statsStats    metrics.EndpointStats
	snapshotStats metrics.EndpointStats
	adminStats    metrics.EndpointStats

	// Per-tenant ingest/query accounting behind the /metrics per-stream
	// series. The map is capped at maxTenantSeries streams; beyond that,
	// new streams account under the "_other" overflow bucket so a tenant
	// spray cannot turn the exposition into a cardinality bomb. Series
	// are pruned when their stream is deleted or departs via detach, so
	// the cap counts live tenants, not every id ever seen. tenantMu
	// serializes slot creation and pruning (lookups stay lock-free); the
	// count is atomic so the fast path can read it without the lock.
	tenants     sync.Map // stream id -> *tenantStats
	tenantMu    sync.Mutex
	tenantCount atomic.Int64
	tenantOther tenantStats

	tr     *trace.Recorder
	logger *slog.Logger
}

// tenantStats is one stream's slice of the request accounting.
type tenantStats struct {
	ingest metrics.EndpointStats
	query  metrics.EndpointStats
}

// maxTenantSeries caps how many distinct streams get their own labelled
// series in /metrics; the rest aggregate under tenantOverflow.
const maxTenantSeries = 1024

// tenantOverflow is the catch-all stream label once maxTenantSeries is
// reached.
const tenantOverflow = "_other"

// tenantFor resolves the accounting slot for a stream id. Slot creation
// runs under tenantMu: a bare check-then-LoadOrStore would let N racing
// first requests all pass the cap check and overshoot maxTenantSeries by
// up to GOMAXPROCS-1 series.
func (m *Multi) tenantFor(id string) *tenantStats {
	if v, ok := m.tenants.Load(id); ok {
		return v.(*tenantStats)
	}
	m.tenantMu.Lock()
	defer m.tenantMu.Unlock()
	if v, ok := m.tenants.Load(id); ok {
		return v.(*tenantStats)
	}
	if m.tenantCount.Load() >= maxTenantSeries {
		return &m.tenantOther
	}
	t := &tenantStats{}
	m.tenants.Store(id, t)
	m.tenantCount.Add(1)
	return t
}

// pruneTenant drops a stream's metrics series when the stream leaves the
// daemon (DELETE, or departure via detach), freeing its slot under the
// series cap. Without this the cap counted every id ever seen, and after
// 1024 distinct ids every new tenant folded into "_other" forever, even
// with only a handful live.
func (m *Multi) pruneTenant(id string) {
	m.tenantMu.Lock()
	defer m.tenantMu.Unlock()
	if _, ok := m.tenants.Load(id); ok {
		m.tenants.Delete(id)
		m.tenantCount.Add(-1)
	}
}

// tenantRecord wraps a per-stream handler with per-tenant accounting in
// the slot the selector picks (ingest or query).
func (m *Multi) tenantRecord(slot func(*tenantStats) *metrics.EndpointStats, h func(string, http.ResponseWriter, *http.Request) (int64, bool)) func(string, http.ResponseWriter, *http.Request) (int64, bool) {
	return func(id string, w http.ResponseWriter, r *http.Request) (int64, bool) {
		t0 := time.Now()
		items, failed := h(id, w, r)
		slot(m.tenantFor(id)).Record(time.Since(t0), items, failed)
		return items, failed
	}
}

// NewMulti builds a multi-stream server over reg.
func NewMulti(reg *registry.Registry, cfg MultiConfig) *Multi {
	if cfg.DefaultStream == "" {
		cfg.DefaultStream = "default"
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 512
	}
	cfg.MaxBodyBytes = resolveLimit(cfg.MaxBodyBytes, defaultMaxBodyBytes)
	cfg.MaxPoints = resolveLimit(cfg.MaxPoints, defaultMaxPoints)
	if cfg.Trace == nil {
		cfg.Trace = trace.NewRecorder(0, 0)
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	m := &Multi{reg: reg, cfg: cfg, start: time.Now(), mux: http.NewServeMux(), tr: cfg.Trace, logger: cfg.Logger}

	// Ingest and query are wrapped once with per-tenant accounting and
	// the wrapper reused by the legacy aliases, so a default-stream
	// ingest through POST /ingest lands in the same per-stream series.
	ingest := m.tenantRecord(func(t *tenantStats) *metrics.EndpointStats { return &t.ingest }, m.handleIngest)
	query := m.tenantRecord(func(t *tenantStats) *metrics.EndpointStats { return &t.query }, m.handleCenters)

	m.mux.Handle("POST /streams/{id}/ingest", m.observe("ingest", &m.ingestStats, m.byID(ingest)))
	m.mux.Handle("GET /streams/{id}/centers", m.observe("centers", &m.centersStats, m.byID(query)))
	m.mux.Handle("GET /streams/{id}/stats", m.observe("stats", &m.statsStats, m.byID(m.handleStreamStats)))
	m.mux.Handle("GET /streams/{id}/snapshot", m.observe("snapshot", &m.snapshotStats, m.byID(m.handleSnapshotGet)))
	m.mux.Handle("POST /streams/{id}/snapshot", m.observe("snapshot", &m.snapshotStats, m.byID(m.handleSnapshotPost)))
	m.mux.Handle("PUT /streams/{id}/snapshot", m.observe("install", &m.snapshotStats, m.byID(m.handleSnapshotInstall)))
	m.mux.Handle("PUT /streams/{id}/standby", m.observe("standby", &m.snapshotStats, m.byID(m.handleStandbyInstall)))
	m.mux.Handle("POST /streams/{id}/detach", m.observe("detach", &m.adminStats, m.byID(m.handleDetach)))
	m.mux.Handle("POST /streams/{id}/reattach", m.observe("reattach", &m.adminStats, m.byID(m.handleReattach)))
	m.mux.Handle("PUT /streams/{id}", m.observe("create", &m.adminStats, m.byID(m.handleCreate)))
	m.mux.Handle("DELETE /streams/{id}", m.observe("delete", &m.adminStats, m.byID(m.handleDelete)))
	m.mux.Handle("GET /streams", m.observe("list", &m.adminStats, m.handleList))
	m.mux.Handle("GET /stats", m.observe("stats", &m.statsStats, m.handleRegistryStats))
	// /metrics and /debug/traces are deliberately outside the observe()
	// accounting: a scrape every few seconds must not pollute the request
	// counters or the trace window it reports.
	m.mux.HandleFunc("GET /metrics", m.handleMetrics)
	m.mux.Handle("GET /debug/traces", m.tr.Handler())

	// Single-stream aliases: the pre-registry API, routed at the default
	// stream.
	alias := func(h func(string, http.ResponseWriter, *http.Request) (int64, bool)) handled {
		return func(w http.ResponseWriter, r *http.Request) (int64, bool) {
			trace.FromContext(r.Context()).SetStream(m.cfg.DefaultStream)
			return h(m.cfg.DefaultStream, w, r)
		}
	}
	m.mux.Handle("POST /ingest", m.observe("ingest", &m.ingestStats, alias(ingest)))
	m.mux.Handle("GET /centers", m.observe("centers", &m.centersStats, alias(query)))
	m.mux.Handle("GET /snapshot", m.observe("snapshot", &m.snapshotStats, alias(m.handleSnapshotGet)))
	m.mux.Handle("POST /snapshot", m.observe("snapshot", &m.snapshotStats, alias(m.handleSnapshotPost)))
	m.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	return m
}

// Handler returns the routing handler for the server's endpoints.
func (m *Multi) Handler() http.Handler { return m.mux }

// Registry returns the underlying stream registry (for daemon lifecycle
// hooks: checkpoint tickers, TTL sweeps, shutdown flushes).
func (m *Multi) Registry() *registry.Registry { return m.reg }

// Traces returns the recorder behind GET /debug/traces.
func (m *Multi) Traces() *trace.Recorder { return m.tr }

// handled is an http handler that additionally reports how many items it
// processed and whether it failed, for endpoint accounting.
type handled func(w http.ResponseWriter, r *http.Request) (items int64, failed bool)

// observe wraps a handler with latency/throughput accounting and the
// per-request span lifecycle: an incoming traceparent joins its trace,
// anything else starts a fresh one; the span rides the request context
// so deeper layers (registry lock-wait, restore) can add stages; and a
// request over the slow threshold emits one structured log record.
func (m *Multi) observe(name string, st *metrics.EndpointStats, h handled) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		tid, parent, _, _ := trace.Parse(r.Header.Get(trace.Header))
		sp := m.tr.StartSpan(name, tid, parent)
		r = r.WithContext(trace.NewContext(r.Context(), sp))
		sw := &statusWriter{ResponseWriter: w}
		items, failed := h(sw, r)
		d := time.Since(t0)
		st.Record(d, items, failed)
		status := sw.status
		if status == 0 {
			status = http.StatusOK // handler wrote nothing: net/http's implicit 200
		}
		sp.SetStatus(status)
		sp.SetFailed(failed)
		data := sp.End()
		if slow := m.cfg.SlowRequest; slow > 0 && d >= slow {
			trace.LogSlow(m.logger, data)
		}
	})
}

// statusWriter captures the status code a handler resolved to, for the
// request's span; a Write without an explicit WriteHeader is the
// implicit 200.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// byID adapts a per-stream handler to the mux, extracting {id} and
// tagging the request's span with it.
func (m *Multi) byID(h func(string, http.ResponseWriter, *http.Request) (int64, bool)) handled {
	return func(w http.ResponseWriter, r *http.Request) (int64, bool) {
		id := r.PathValue("id")
		trace.FromContext(r.Context()).SetStream(id)
		return h(id, w, r)
	}
}

// statusFor maps registry errors onto HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, registry.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, registry.ErrExists):
		return http.StatusConflict
	case errors.Is(err, registry.ErrDetached):
		return http.StatusConflict
	case errors.Is(err, registry.ErrInvalidID):
		return http.StatusBadRequest
	case errors.Is(err, registry.ErrInvalidConfig):
		return http.StatusBadRequest
	case errors.Is(err, registry.ErrNoSnapshotPath):
		return http.StatusBadRequest
	case errors.Is(err, registry.ErrThrottled):
		return http.StatusTooManyRequests
	}
	return http.StatusInternalServerError
}

// OwnerHeader is the response header naming where a stream lives: set on
// 409s for detached (migrating) streams so a client that contacted the
// wrong daemon learns where to retry, and by the router on every proxied
// response to report which daemon served it.
const OwnerHeader = "X-Streamkm-Owner"

func writeErr(w http.ResponseWriter, err error) {
	writeErrExtra(w, err, nil)
}

// writeErrExtra is writeErr with extra body fields merged in. The
// ingest handlers use it to report "stream" and "ingested" even on
// registry-level failures (throttled, detached, not found): an ndjson
// client reconciling partial acks must be able to read the applied
// count off every error body, not just the mid-stream ones.
func writeErrExtra(w http.ResponseWriter, err error, extra map[string]interface{}) {
	var de *registry.DetachedError
	if errors.As(err, &de) && de.Owner != "" {
		w.Header().Set(OwnerHeader, de.Owner)
	}
	var te *registry.ThrottleError
	if errors.As(err, &te) {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(te.RetryAfter)))
	}
	body := map[string]interface{}{"error": err.Error()}
	for k, v := range extra {
		body[k] = v
	}
	writeJSON(w, statusFor(err), body)
}

// retryAfterSeconds rounds a pacing hint up to whole seconds (minimum
// 1), the only granularity the Retry-After header carries.
func retryAfterSeconds(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// handleIngest applies an ingest body to the named stream, creating it
// lazily (with the registry's default configuration) on first ingest —
// the zero-ceremony tenant onboarding path. Content-Type
// application/x-streamkm-batch selects the binary columnar path;
// anything else is ndjson.
//
// The (byte-capped) body is buffered and decoded in full before the
// registry is entered, so the stream's read lock covers only the apply:
// decoding inside it would stall hibernation, checkpoints and — through
// the RWMutex's writer preference — every other request to the same
// stream for as long as the decode takes. A body that can apply nothing
// (malformed binary, or an ndjson body whose first record fails) is
// answered before the registry is touched, so a typo'd id or a
// malformed-body spray never registers (and later checkpoints) a
// tenant; neither does an empty body.
func (m *Multi) handleIngest(id string, w http.ResponseWriter, r *http.Request) (int64, bool) {
	// The buffer comes from the registry-wide pool; With is synchronous
	// and both decoders copy out of it, so it can be returned as soon as
	// the handler is done.
	pool := m.reg.Buffers()
	sp := trace.FromContext(r.Context())
	endRead := sp.StartStage("body-read")
	raw, status, msg := readBody(w, r, m.cfg.MaxBodyBytes, pool)
	endRead()
	defer pool.PutBytes(raw)
	var body decodedIngest
	if status == 0 {
		endDecode := sp.StartStage("wire-decode")
		body, status, msg = decodeIngest(r, raw, m.cfg.MaxPoints, pool)
		endDecode()
		defer pool.PutBatch(body.binary)
	}
	if status != 0 {
		writeJSON(w, status, map[string]interface{}{
			"error":    msg,
			"stream":   id,
			"ingested": 0,
		})
		return 0, true
	}
	var (
		ingested int64
		count    int64
	)
	err := m.reg.WithContext(r.Context(), id, body.len() > 0, func(s *registry.Stream, b registry.Backend) error {
		endQuota := sp.StartStage("quota")
		err := m.reg.AdmitIngest(s, b, int64(len(raw)))
		endQuota()
		if err != nil {
			return err
		}
		endApply := sp.StartStage("cluster-apply")
		ingested, status, msg = body.apply(m.cfg.MaxBatch, b, s.CheckDim)
		endApply()
		m.reg.ChargeIngest(s, ingested)
		count = b.Count()
		return nil
	})
	if err != nil {
		writeErrExtra(w, err, map[string]interface{}{"stream": id, "ingested": ingested})
		return ingested, true
	}
	if status != 0 {
		writeJSON(w, status, map[string]interface{}{
			"error":    msg,
			"stream":   id,
			"ingested": ingested,
		})
		return ingested, true
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"stream":   id,
		"ingested": ingested,
		"count":    count,
	})
	return ingested, false
}

// handleCenters answers a clustering query against the named stream,
// restoring it from disk first when hibernated. Unknown streams are 404
// — a query never creates a tenant.
func (m *Multi) handleCenters(id string, w http.ResponseWriter, r *http.Request) (int64, bool) {
	refresh, _ := strconv.ParseBool(r.URL.Query().Get("refresh"))
	var (
		centers [][]float64
		count   int64
		k       int
		algo    string
	)
	err := m.reg.WithContext(r.Context(), id, false, func(s *registry.Stream, b registry.Backend) error {
		endStage := trace.FromContext(r.Context()).StartStage("coreset-recompute")
		centers = queryCenters(r.Context(), b, refresh)
		endStage()
		count = b.Count()
		k = s.Config().K
		algo = b.Name()
		return nil
	})
	if err != nil {
		writeErr(w, err)
		return 0, true
	}
	if centers == nil {
		centers = [][]float64{}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"stream":  id,
		"algo":    algo,
		"k":       k,
		"count":   count,
		"centers": centers,
	})
	return int64(len(centers)), false
}

// handleStreamStats describes one stream without changing its residency:
// statting a hibernated tenant keeps it hibernated.
func (m *Multi) handleStreamStats(id string, w http.ResponseWriter, _ *http.Request) (int64, bool) {
	in, err := m.reg.Stat(id)
	if err != nil {
		writeErr(w, err)
		return 0, true
	}
	resp := map[string]interface{}{
		"stream":           in.ID,
		"resident":         in.Resident,
		"backend":          in.Backend,
		"algo":             in.Algo,
		"k":                in.K,
		"dim":              in.Dim,
		"count":            in.Count,
		"points_stored":    in.PointsStored,
		"memory_mb":        metrics.MemoryMB(in.PointsStored, in.Dim),
		"last_access_unix": in.LastAccess,
	}
	if in.HalfLife > 0 {
		resp["half_life"] = in.HalfLife
	}
	if in.HalfLifeSecs > 0 {
		resp["half_life_seconds"] = in.HalfLifeSecs
	}
	if in.WindowN > 0 {
		resp["window_n"] = in.WindowN
	}
	if in.Shards > 0 {
		resp["shards"] = in.Shards
	}
	if in.PointsPerSec > 0 {
		resp["points_per_sec"] = in.PointsPerSec
	}
	if in.BytesPerSec > 0 {
		resp["bytes_per_sec"] = in.BytesPerSec
	}
	if in.MaxResBytes > 0 {
		resp["max_resident_bytes"] = in.MaxResBytes
	}
	if in.CentersCache != nil {
		resp["centers_cache"] = in.CentersCache
	}
	writeJSON(w, http.StatusOK, resp)
	return 0, false
}

// handleSnapshotGet streams the named stream's serialized state —
// straight from its snapshot file when hibernated, so backing up a cold
// tenant does not warm it.
func (m *Multi) handleSnapshotGet(id string, w http.ResponseWriter, _ *http.Request) (int64, bool) {
	var buf bytes.Buffer
	if err := m.reg.Snapshot(id, &buf); err != nil {
		writeErr(w, err)
		return 0, true
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	n, err := io.Copy(w, &buf)
	return n, err != nil
}

// handleSnapshotPost checkpoints the named stream to its per-stream
// snapshot file. For a hibernated stream this is a no-op success: its
// file already holds the state.
func (m *Multi) handleSnapshotPost(id string, w http.ResponseWriter, r *http.Request) (int64, bool) {
	endStage := trace.FromContext(r.Context()).StartStage("checkpoint-fsync")
	n, err := m.reg.Checkpoint(id)
	endStage()
	if err != nil {
		writeErr(w, err)
		return 0, true
	}
	in, _ := m.reg.Stat(id)
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"stream": id,
		"bytes":  n,
		"count":  in.Count,
	})
	return n, false
}

// handleDetach freezes a stream for migration: it is checkpointed to its
// snapshot file (waiting out in-flight requests) and every later request
// answers 409 — with an X-Streamkm-Owner hint when the optional body
// {"owner":"..."} named the destination — until POST reattach, or DELETE
// once the new owner has the state. This is the source half of the
// router's rebalance protocol.
func (m *Multi) handleDetach(id string, w http.ResponseWriter, r *http.Request) (int64, bool) {
	var body struct {
		Owner string `json:"owner"`
	}
	if r.ContentLength != 0 {
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&body); err != nil && !errors.Is(err, io.EOF) {
			writeJSON(w, http.StatusBadRequest, map[string]interface{}{
				"error": fmt.Sprintf("malformed detach body: %v", err),
			})
			return 0, true
		}
	}
	endStage := trace.FromContext(r.Context()).StartStage("checkpoint-fsync")
	_, err := m.reg.Detach(id, body.Owner)
	endStage()
	if err != nil {
		writeErr(w, err)
		return 0, true
	}
	// The tenant is departing; free its per-stream metrics slot. An
	// aborted migration (reattach) simply re-registers the series on the
	// tenant's next request.
	m.pruneTenant(id)
	in, _ := m.reg.Stat(id)
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"stream":   id,
		"detached": true,
		"count":    in.Count,
	})
	return 1, false
}

// handleReattach lifts a detach — the abort path of a failed migration;
// the stream serves again from the snapshot the detach wrote.
func (m *Multi) handleReattach(id string, w http.ResponseWriter, _ *http.Request) (int64, bool) {
	if err := m.reg.Reattach(id); err != nil {
		writeErr(w, err)
		return 0, true
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"stream":   id,
		"detached": false,
	})
	return 1, false
}

// handleSnapshotInstall registers a stream from a serialized snapshot
// envelope in the request body — the destination half of a migration:
// the envelope is persisted and restored immediately, so a malformed or
// truncated body is a 400 with nothing registered, and a taken id a 409
// (an install never overwrites a live tenant).
func (m *Multi) handleSnapshotInstall(id string, w http.ResponseWriter, r *http.Request) (int64, bool) {
	body := limitBody(w, r, m.cfg.MaxBodyBytes)
	if err := m.reg.Install(id, body); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeJSON(w, http.StatusRequestEntityTooLarge, map[string]interface{}{
				"error": fmt.Sprintf("snapshot exceeds %d bytes", mbe.Limit),
			})
			return 0, true
		}
		status := statusFor(err)
		if status == http.StatusInternalServerError {
			// A snapshot that fails validation or restore is the sender's
			// fault, like a bad PUT config.
			status = http.StatusBadRequest
		}
		writeJSON(w, status, map[string]interface{}{"error": err.Error()})
		return 0, true
	}
	in, _ := m.reg.Stat(id)
	writeJSON(w, http.StatusCreated, in)
	return 1, false
}

// handleStandbyInstall accepts a replication ship: the request body is a
// snapshot envelope installed (or refreshed — unlike PUT snapshot, a
// re-ship over an existing standby copy succeeds) in the standby state:
// registered, detached, refusing every read and write with 409 + an
// X-Streamkm-Owner hint naming where the live copy serves (?owner=...).
// POST /streams/{id}/reattach promotes the standby into a serving
// tenant — the failover path. 409 when the id is live here (replication
// never clobbers a serving tenant), 400 for an envelope that fails
// validation.
func (m *Multi) handleStandbyInstall(id string, w http.ResponseWriter, r *http.Request) (int64, bool) {
	owner := r.URL.Query().Get("owner")
	body := limitBody(w, r, m.cfg.MaxBodyBytes)
	count, err := m.reg.InstallStandby(id, body, owner)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeJSON(w, http.StatusRequestEntityTooLarge, map[string]interface{}{
				"error": fmt.Sprintf("snapshot exceeds %d bytes", mbe.Limit),
			})
			return 0, true
		}
		status := statusFor(err)
		if status == http.StatusInternalServerError {
			status = http.StatusBadRequest
		}
		writeJSON(w, status, map[string]interface{}{"error": err.Error()})
		return 0, true
	}
	writeJSON(w, http.StatusCreated, map[string]interface{}{
		"stream":  id,
		"standby": true,
		"count":   count,
		"owner":   owner,
	})
	return 1, false
}

// handleCreate registers a stream with an explicit configuration — a
// backend spec like {"backend":"windowed","algo":"CC","k":10,"dim":0,
// "window_n":100000} (or "backend":"decayed" with "half_life") — every
// field optional (zero values fall back to the registry default).
// Invalid specs are 400, a taken id is 409.
func (m *Multi) handleCreate(id string, w http.ResponseWriter, r *http.Request) (int64, bool) {
	var cfg registry.StreamConfig
	if r.ContentLength != 0 {
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&cfg); err != nil && !errors.Is(err, io.EOF) {
			writeJSON(w, http.StatusBadRequest, map[string]interface{}{
				"error": fmt.Sprintf("malformed stream config: %v", err),
			})
			return 0, true
		}
	}
	if err := m.reg.Create(id, cfg); err != nil {
		status := statusFor(err)
		if status == http.StatusInternalServerError {
			// A failed factory build means the submitted config was bad
			// (unknown algorithm, invalid k, ...): the client's fault.
			status = http.StatusBadRequest
		}
		writeJSON(w, status, map[string]interface{}{"error": err.Error()})
		return 0, true
	}
	in, _ := m.reg.Stat(id)
	writeJSON(w, http.StatusCreated, in)
	return 1, false
}

// handleDelete removes a stream and its on-disk snapshot, and frees the
// stream's per-tenant metrics slot.
func (m *Multi) handleDelete(id string, w http.ResponseWriter, _ *http.Request) (int64, bool) {
	if err := m.reg.Delete(id); err != nil {
		writeErr(w, err)
		return 0, true
	}
	m.pruneTenant(id)
	writeJSON(w, http.StatusOK, map[string]interface{}{"deleted": id})
	return 1, false
}

// handleList enumerates every registered stream, resident or not.
// default_stream names the stream the legacy single-stream endpoints
// alias, so a router merging listings from several daemons can
// disambiguate per-daemon default streams instead of aliasing them.
func (m *Multi) handleList(w http.ResponseWriter, _ *http.Request) (int64, bool) {
	infos := m.reg.List()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"streams":        infos,
		"total":          len(infos),
		"default_stream": m.cfg.DefaultStream,
	})
	return int64(len(infos)), false
}

// handleRegistryStats reports the registry-wide picture: how many
// streams exist, how many are resident versus hibernated, lifecycle
// counters (evictions, restores, ...), checkpoint counters, and
// per-endpoint request accounting.
func (m *Multi) handleRegistryStats(w http.ResponseWriter, _ *http.Request) (int64, bool) {
	st := m.reg.Stats()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"streams": map[string]int{
			"total":      st.Streams,
			"resident":   st.Resident,
			"hibernated": st.Hibernated,
		},
		"lifecycle":           st.Registry,
		"checkpoint":          st.Checkpoint,
		"uptime_s":            time.Since(m.start).Seconds(),
		"ingest_points_per_s": m.ingestStats.Throughput(m.start),
		"endpoints": map[string]metrics.EndpointSnapshot{
			"ingest":   m.ingestStats.Snapshot(),
			"centers":  m.centersStats.Snapshot(),
			"stats":    m.statsStats.Snapshot(),
			"snapshot": m.snapshotStats.Snapshot(),
			"admin":    m.adminStats.Snapshot(),
		},
	})
	return 0, false
}
