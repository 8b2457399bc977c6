package server

import (
	"bytes"
	"context"
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
	"streamkm/internal/persist"
	"streamkm/internal/trace"
	"streamkm/internal/wire"
)

// Clusterer is the minimal surface the HTTP layer needs from a streaming
// clusterer. It is deliberately algorithm-agnostic ([][]float64 in and
// out) so windowed, decayed or sharded variants serve identically.
// Implementations must be safe for concurrent use.
type Clusterer interface {
	// AddBatch observes a batch of unit-weight points.
	AddBatch(pts [][]float64)
	// Centers returns the current cluster centers.
	Centers() [][]float64
	// Count returns the number of points observed so far.
	Count() int64
	// PointsStored reports memory use in stored points.
	PointsStored() int
	// Name identifies the algorithm in stats responses.
	Name() string
}

// WeightedAdder is optionally implemented by backends that accept
// weighted points ({"p":[...],"w":2.5} ingest values).
type WeightedAdder interface {
	AddWeighted(p []float64, w float64)
}

// Refresher is optionally implemented by backends with a centers cache;
// GET /centers?refresh=1 calls it to force recomputation.
type Refresher interface {
	Refresh() [][]float64
}

// ContextCenterer is optionally implemented by backends that stage their
// query internals (e.g. the sharded pipelines' shard-merge) into the
// request's trace span; handleCenters prefers it over Clusterer.Centers.
type ContextCenterer interface {
	CentersContext(ctx context.Context) [][]float64
}

// ContextRefresher is ContextCenterer's forced-recomputation
// counterpart, preferred over Refresher when ?refresh=1 is set.
type ContextRefresher interface {
	RefreshContext(ctx context.Context) [][]float64
}

// CacheStater is optionally implemented by backends with a centers
// cache; /stats reports its hit/miss counters.
type CacheStater interface {
	CacheStats() (hits, misses int64)
}

// Snapshotter is optionally implemented by backends whose state can be
// serialized (e.g. streamkm.Concurrent); it powers GET/POST /snapshot and
// the daemon's periodic checkpoints. Snapshot must be safe to call while
// other goroutines ingest and query.
type Snapshotter interface {
	Snapshot(w io.Writer) error
}

// Config configures a Server.
type Config struct {
	// K is the number of centers the backend answers with; reported in
	// /centers and /stats responses.
	K int
	// Dim fixes the expected point dimension. 0 means adopt the dimension
	// of the first ingested point.
	Dim int
	// MaxBatch caps how many points are applied to the backend per
	// AddBatch call while applying an ingest body. Default 512.
	MaxBatch int
	// SnapshotPath, when non-empty, is where POST /snapshot (and the
	// daemon's checkpoint ticker, via WriteCheckpoint) persists the
	// backend's state. Writes are atomic: temp file + fsync + rename, so
	// a crash mid-checkpoint never corrupts the previous one.
	SnapshotPath string
	// MaxBodyBytes caps the size of one ingest request body; beyond it
	// the request is refused with 413 instead of read unboundedly.
	// 0 selects the 64 MiB default, negative disables the cap.
	MaxBodyBytes int64
	// MaxPoints caps how many points one ingest request may carry (413
	// beyond). 0 selects the default (~1M), negative disables the cap.
	MaxPoints int64
	// Trace receives one span per request and serves GET /debug/traces.
	// Nil allocates a private recorder with default capacities.
	Trace *trace.Recorder
	// SlowRequest, when positive, emits one structured log record (trace
	// id, stream, endpoint, dominant stage) per request slower than it.
	SlowRequest time.Duration
	// Logger receives slow-request records; nil uses slog.Default().
	Logger *slog.Logger
}

// Server serves a Clusterer over HTTP. Create with New, mount via
// Handler. All handlers are safe for concurrent use; per-endpoint
// counters are lock-free.
type Server struct {
	c     Clusterer
	cfg   Config
	dim   atomic.Int64 // fixed stream dimension; 0 until first point
	start time.Time
	mux   *http.ServeMux

	ingestStats   metrics.EndpointStats
	centersStats  metrics.EndpointStats
	statsStats    metrics.EndpointStats
	snapshotStats metrics.EndpointStats
	checkpoint    metrics.CheckpointStats

	checkpointMu sync.Mutex // serializes temp-file writes to SnapshotPath

	pool wire.BufferPool // recycles ingest body buffers and binary point headers

	tr     *trace.Recorder
	logger *slog.Logger
}

// New builds a Server over c. cfg.K should match the backend's k.
func New(c Clusterer, cfg Config) *Server {
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
	s := &Server{c: c, cfg: cfg, start: time.Now(), mux: http.NewServeMux(), tr: cfg.Trace, logger: cfg.Logger}
	if cfg.Dim > 0 {
		s.dim.Store(int64(cfg.Dim))
	}
	s.mux.Handle("POST /ingest", s.observe("ingest", &s.ingestStats, s.handleIngest))
	s.mux.Handle("GET /centers", s.observe("centers", &s.centersStats, s.handleCenters))
	s.mux.Handle("GET /stats", s.observe("stats", &s.statsStats, s.handleStats))
	s.mux.Handle("GET /snapshot", s.observe("snapshot", &s.snapshotStats, s.handleSnapshotGet))
	s.mux.Handle("POST /snapshot", s.observe("snapshot", &s.snapshotStats, s.handleSnapshotPost))
	// Outside observe(): scrapes must not pollute the counters or the
	// trace window they read.
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.Handle("GET /debug/traces", s.tr.Handler())
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	return s
}

// Handler returns the routing handler for the server's endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// handled is an http handler that additionally reports how many items it
// processed and whether it failed, for endpoint accounting.
type handled func(w http.ResponseWriter, r *http.Request) (items int64, failed bool)

// observe wraps a handler with latency/throughput accounting and the
// per-request span lifecycle: an incoming traceparent joins its trace,
// anything else starts a fresh one; the span rides the request context
// so deeper layers (registry lock-wait, restore) can add stages; and a
// request over the slow threshold emits one structured log record.
func observe(tr *trace.Recorder, slow time.Duration, logger *slog.Logger, name string, st *metrics.EndpointStats, h handled) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		tid, parent, _, _ := trace.Parse(r.Header.Get(trace.Header))
		sp := tr.StartSpan(name, tid, parent)
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
		if slow > 0 && d >= slow {
			trace.LogSlow(logger, data)
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

func (s *Server) observe(name string, st *metrics.EndpointStats, h handled) http.Handler {
	return observe(s.tr, s.cfg.SlowRequest, s.logger, name, st, h)
}

// Traces returns the recorder behind GET /debug/traces.
func (s *Server) Traces() *trace.Recorder { return s.tr }

// handleIngest applies the request body's points to the backend. The
// byte-capped body is buffered and decoded in full before the backend is
// touched, in the wire format its Content-Type negotiates (see
// decodeIngest): an application/x-streamkm-batch body takes the binary
// columnar path (one decode pass, one coordinate allocation, pooled
// buffers; all-or-nothing by construction); anything else is ndjson,
// which on a malformed value, dimension mismatch or exceeded point cap
// stops, keeps the records before it applied, and reports both the error
// and the applied count. A body over the byte cap is refused with 413
// before anything is applied.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) (int64, bool) {
	sp := trace.FromContext(r.Context())
	endRead := sp.StartStage("body-read")
	raw, status, msg := readBody(w, r, s.cfg.MaxBodyBytes, &s.pool)
	endRead()
	defer s.pool.PutBytes(raw)
	var ingested int64
	if status == 0 {
		endDecode := sp.StartStage("wire-decode")
		var body decodedIngest
		body, status, msg = decodeIngest(r, raw, s.cfg.MaxPoints, &s.pool)
		endDecode()
		defer s.pool.PutBatch(body.binary)
		if status == 0 {
			endApply := sp.StartStage("cluster-apply")
			ingested, status, msg = body.apply(s.cfg.MaxBatch, s.c, s.checkDim)
			endApply()
		}
	}
	if status != 0 {
		writeJSON(w, status, map[string]interface{}{
			"error":    msg,
			"ingested": ingested,
		})
		return ingested, true
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"ingested": ingested,
		"count":    s.c.Count(),
	})
	return ingested, false
}

// checkDim enforces a single stream dimension, adopting the first point's
// if none was configured.
func (s *Server) checkDim(p []float64) error {
	d := int64(len(p))
	if s.dim.CompareAndSwap(0, d) {
		return nil
	}
	if want := s.dim.Load(); want != d {
		return fmt.Errorf("dimension mismatch: stream is %d-dimensional, got %d", want, d)
	}
	return nil
}

// handleCenters answers a clustering query, via the backend's cached fast
// path unless ?refresh=1 forces recomputation.
func (s *Server) handleCenters(w http.ResponseWriter, r *http.Request) (int64, bool) {
	var centers [][]float64
	refresh, _ := strconv.ParseBool(r.URL.Query().Get("refresh"))
	endStage := trace.FromContext(r.Context()).StartStage("coreset-recompute")
	centers = queryCenters(r.Context(), s.c, refresh)
	endStage()
	if centers == nil {
		centers = [][]float64{}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"algo":    s.c.Name(),
		"k":       s.cfg.K,
		"count":   s.c.Count(),
		"centers": centers,
	})
	return int64(len(centers)), false
}

// queryCenters dispatches a centers query to the richest interface the
// backend offers: context-carrying variants (so backend-internal stages
// like shard-merge land in the request's span) over plain ones, forced
// refresh over the cached fast path.
func queryCenters(ctx context.Context, c Clusterer, refresh bool) [][]float64 {
	if refresh {
		if rf, ok := c.(ContextRefresher); ok {
			return rf.RefreshContext(ctx)
		}
		if rf, ok := c.(Refresher); ok {
			return rf.Refresh()
		}
	}
	if cc, ok := c.(ContextCenterer); ok {
		return cc.CentersContext(ctx)
	}
	return c.Centers()
}

// handleSnapshotGet streams the backend's serialized state to the client
// — the off-box backup path. The snapshot is buffered first (coreset
// state is small by construction — that is the paper's point) so an
// encoding failure still yields a clean error status instead of a
// truncated download.
func (s *Server) handleSnapshotGet(w http.ResponseWriter, _ *http.Request) (int64, bool) {
	sn, ok := s.c.(Snapshotter)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, map[string]interface{}{
			"error": fmt.Sprintf("backend %s does not support snapshots", s.c.Name()),
		})
		return 0, true
	}
	var buf bytes.Buffer
	if err := sn.Snapshot(&buf); err != nil {
		// Not a checkpoint failure: /stats "checkpoint" counters track
		// only writes to SnapshotPath (WriteCheckpoint).
		writeJSON(w, http.StatusInternalServerError, map[string]interface{}{
			"error": fmt.Sprintf("snapshot: %v", err),
		})
		return 0, true
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	n, err := io.Copy(w, &buf)
	return n, err != nil
}

// handleSnapshotPost checkpoints the backend's state to the configured
// snapshot path (atomic write) and reports what was written.
func (s *Server) handleSnapshotPost(w http.ResponseWriter, r *http.Request) (int64, bool) {
	if _, ok := s.c.(Snapshotter); !ok {
		writeJSON(w, http.StatusNotImplemented, map[string]interface{}{
			"error": fmt.Sprintf("backend %s does not support snapshots", s.c.Name()),
		})
		return 0, true
	}
	if s.cfg.SnapshotPath == "" {
		writeJSON(w, http.StatusBadRequest, map[string]interface{}{
			"error": "no snapshot path configured (start the daemon with -checkpoint)",
		})
		return 0, true
	}
	endStage := trace.FromContext(r.Context()).StartStage("checkpoint-fsync")
	n, err := s.WriteCheckpoint()
	endStage()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]interface{}{
			"error": fmt.Sprintf("checkpoint: %v", err),
		})
		return 0, true
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"path":  s.cfg.SnapshotPath,
		"bytes": n,
		"count": s.c.Count(),
	})
	return n, false
}

// WriteCheckpoint persists the backend's state to cfg.SnapshotPath with
// write-to-temp + fsync + atomic rename, returning the snapshot size. It
// backs both POST /snapshot and the daemon's checkpoint ticker, so all
// checkpoints share the /stats counters. Concurrent calls are serialized;
// the previous checkpoint file survives any failure.
func (s *Server) WriteCheckpoint() (int64, error) {
	sn, ok := s.c.(Snapshotter)
	if !ok {
		return 0, fmt.Errorf("backend %s does not support snapshots", s.c.Name())
	}
	if s.cfg.SnapshotPath == "" {
		return 0, errors.New("no snapshot path configured")
	}
	s.checkpointMu.Lock()
	defer s.checkpointMu.Unlock()
	n, err := s.writeCheckpointLocked(sn)
	if err != nil {
		s.checkpoint.RecordFailure()
		return 0, err
	}
	s.checkpoint.RecordSuccess(n, time.Now())
	return n, nil
}

func (s *Server) writeCheckpointLocked(sn Snapshotter) (int64, error) {
	return persist.WriteFileAtomic(s.cfg.SnapshotPath, sn.Snapshot)
}

// handleStats reports stream, memory, cache and per-endpoint counters.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) (int64, bool) {
	stored := s.c.PointsStored()
	dim := int(s.dim.Load())
	resp := map[string]interface{}{
		"algo":                s.c.Name(),
		"k":                   s.cfg.K,
		"dim":                 dim,
		"count":               s.c.Count(),
		"points_stored":       stored,
		"memory_mb":           metrics.MemoryMB(stored, dim),
		"uptime_s":            time.Since(s.start).Seconds(),
		"ingest_points_per_s": s.ingestStats.Throughput(s.start),
		"endpoints": map[string]metrics.EndpointSnapshot{
			"ingest":   s.ingestStats.Snapshot(),
			"centers":  s.centersStats.Snapshot(),
			"stats":    s.statsStats.Snapshot(),
			"snapshot": s.snapshotStats.Snapshot(),
		},
		"checkpoint": s.checkpoint.Snapshot(),
	}
	if cs, ok := s.c.(CacheStater); ok {
		hits, misses := cs.CacheStats()
		resp["centers_cache"] = map[string]int64{"hits": hits, "misses": misses}
	}
	writeJSON(w, http.StatusOK, resp)
	return 0, false
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}
