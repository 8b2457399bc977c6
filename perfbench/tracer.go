package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streamkm"
	"streamkm/internal/registry"
	"streamkm/internal/trace"
)

// span is one timed call into a layer, recorded from outside the layer.
// Spans of one request share its trace id (RID); Parent is the span that
// was open on the same goroutine when this one began.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	RID    string `json:"rid,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	Probe  bool   `json:"probe,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0    time.Time
	probe atomic.Bool // spans begun while set belong to an off-path probe

	mu       sync.Mutex
	spans    []span
	open     map[uint64]int // goroutine id -> innermost open span
	backends []*tracedBackend
}

func newTracer() *tracer { return &tracer{t0: time.Now(), open: map[uint64]int{}} }

// goid is the calling goroutine's id, which nests spans of synchronous
// calls without threading a context through APIs that take none.
func goid() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	f := bytes.Fields(buf[:n])
	if len(f) < 2 {
		return 0
	}
	id, _ := strconv.ParseUint(string(f[1]), 10, 64)
	return id
}

// begin opens a span on the calling goroutine and returns its closer.
// Empty rid and tenant are inherited from the enclosing span.
func (t *tracer) begin(name, rid, tenant string) func() {
	g := goid()
	t.mu.Lock()
	prev, ok := t.open[g]
	if !ok {
		prev = -1
	} else {
		if rid == "" {
			rid = t.spans[prev].RID
		}
		if tenant == "" {
			tenant = t.spans[prev].Tenant
		}
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: prev,
		RID: rid, Tenant: tenant, Probe: t.probe.Load()})
	t.open[g] = idx
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		t.spans[idx].End = int64(time.Since(t.t0))
		if prev >= 0 {
			t.open[g] = prev
		} else {
			delete(t.open, g)
		}
		t.mu.Unlock()
	}
}

// handler wraps a server's or router's handler in one span per request,
// named <layer>.<class> and joined to the client's trace id.
func (t *tracer) handler(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := ""
		if tid, _, _, ok := trace.Parse(r.Header.Get(trace.Header)); ok {
			rid = tid.String()
		}
		tenant := ""
		if rest, ok := strings.CutPrefix(r.URL.Path, "/streams/"); ok {
			tenant, _, _ = strings.Cut(rest, "/")
		}
		defer t.begin(layer+"."+requestClass(r), rid, tenant)()
		h.ServeHTTP(w, r)
	})
}

func requestClass(r *http.Request) string {
	switch {
	case strings.HasSuffix(r.URL.Path, "/ingest"):
		return "ingest"
	case strings.HasSuffix(r.URL.Path, "/centers") && r.URL.Query().Get("refresh") != "":
		return "refresh"
	case strings.HasSuffix(r.URL.Path, "/centers"):
		return "centers"
	}
	return "other"
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// The optional interfaces the server and registry look for on a backend.
// The wrapper must expose exactly the ones the wrapped backend has, or the
// traced run would take other code paths than the daemon.
type (
	refresher   interface{ Refresh() [][]float64 }
	ctxCenterer interface {
		CentersContext(context.Context) [][]float64
	}
	ctxRefresher interface {
		RefreshContext(context.Context) [][]float64
	}
	cacheStater interface{ CacheStats() (int64, int64) }
	sharder     interface{ NumShards() int }
)

// tracedBackend times AddBatch, Centers, Refresh and Snapshot of one
// backend. Every backend streamkm.Open builds has Refresh, CacheStats and
// NumShards; the decayed and windowed ones also take contexts, and are
// wrapped by tracedCtxBackend instead.
type tracedBackend struct {
	b      streamkm.Backend
	tr     *tracer
	typ    string
	tenant string
	probe  bool // created by an off-path probe
}

// wrapBackend wraps b for the tracer, refusing a backend whose optional
// interfaces no wrapper reproduces.
func wrapBackend(b streamkm.Backend, tr *tracer, tenant string) (registry.Backend, error) {
	w := &tracedBackend{b: b, tr: tr, typ: string(b.Spec().Type), tenant: tenant, probe: tr.probe.Load()}
	_, rf := b.(refresher)
	_, cs := b.(cacheStater)
	_, sh := b.(sharder)
	_, cc := b.(ctxCenterer)
	_, cr := b.(ctxRefresher)
	if !rf || !cs || !sh || cc != cr {
		return nil, fmt.Errorf("perfbench: no traced wrapper matches the optional interfaces of %T", b)
	}
	tr.mu.Lock()
	tr.backends = append(tr.backends, w)
	tr.mu.Unlock()
	if cc {
		return &tracedCtxBackend{w}, nil
	}
	return w, nil
}

func (w *tracedBackend) span(op string) func() {
	return w.tr.begin("backend."+w.typ+"."+op, "", w.tenant)
}

func (w *tracedBackend) AddBatch(pts [][]float64) {
	defer w.span("add_batch")()
	w.b.AddBatch(pts)
}

func (w *tracedBackend) AddWeighted(p []float64, wt float64) {
	defer w.span("add_batch")()
	w.b.AddWeighted(p, wt)
}

func (w *tracedBackend) Centers() [][]float64 {
	defer w.span("centers")()
	return w.b.Centers()
}

func (w *tracedBackend) Refresh() [][]float64 {
	defer w.span("refresh")()
	return w.b.(refresher).Refresh()
}

func (w *tracedBackend) Snapshot(out io.Writer) error {
	defer w.span("snapshot")()
	return w.b.Snapshot(out)
}

func (w *tracedBackend) Count() int64               { return w.b.Count() }
func (w *tracedBackend) PointsStored() int          { return w.b.PointsStored() }
func (w *tracedBackend) Name() string               { return w.b.Name() }
func (w *tracedBackend) Spec() streamkm.BackendSpec { return w.b.Spec() }
func (w *tracedBackend) CacheStats() (int64, int64) { return w.b.(cacheStater).CacheStats() }
func (w *tracedBackend) NumShards() int             { return w.b.(sharder).NumShards() }

// tracedCtxBackend adds the context-carrying query methods.
type tracedCtxBackend struct{ *tracedBackend }

func (w *tracedCtxBackend) CentersContext(ctx context.Context) [][]float64 {
	defer w.span("centers")()
	return w.b.(ctxCenterer).CentersContext(ctx)
}

func (w *tracedCtxBackend) RefreshContext(ctx context.Context) [][]float64 {
	defer w.span("refresh")()
	return w.b.(ctxRefresher).RefreshContext(ctx)
}
