// Package server exposes streaming clusterers over HTTP — the
// query-serving layer the paper's fast-query algorithms exist for: a
// stream can be ingested continuously while clients query current
// centers, because CC/RCC/OnlineCC (and the cached-centers fast path in
// streamkm.Concurrent) make queries cheap enough to answer inline.
//
// # Architecture
//
// Multi hosts many independent named streams behind /streams/{id}/...,
// routing every request through an internal/registry.Registry: streams
// are created lazily on first ingest (or explicitly via PUT), at most
// MaxResident of them hold a live backend at once, and the
// least-recently-used beyond that bound — or idle past a TTL — is
// hibernated: checkpointed to its per-stream snapshot file and dropped
// from RAM, then restored transparently on its next request. Per-stream
// state is a coreset, polylogarithmic in the stream, so tenant density
// is the point: thousands of streams fit one daemon, and cold ones cost
// nothing. A single-stream deployment is a Multi with one stream: the
// root aliases below serve its default stream.
//
// Multi is algorithm-agnostic: it serves anything satisfying the small
// Clusterer interface ([][]float64 in, [][]float64 out). The
// shipped daemon (cmd/streamkmd) wires the registry to the
// streamkm.Open/Restore backend factory, so each tenant picks its own
// variant in the PUT body: "concurrent" (every point counts forever —
// the default), "decayed" (forward exponential decay, influence halving
// every half_life arrivals or every half_life_seconds of wall time) or
// "windowed" (hard sliding window over the last window_n arrivals). All
// three ingest through "shards" parallel lanes with per-lane locks and
// a read-mostly centers cache; the decayed and windowed pipelines
// sequence batches with a lock-free global arrival clock and merge the
// lanes' coresets at query time (the shard-merge trace stage), so their
// recency semantics are computed over the global arrival order, not
// per-lane ones. All three hibernate and restore through the same
// snapshot envelope, which records the lane layout: a stream restores
// with the shard count it was checkpointed with.
//
// Multi endpoints:
//
//	POST   /streams/{id}/ingest    points into the named stream, created
//	                               lazily on first ingest. Two wire
//	                               formats, negotiated by Content-Type
//	                               (see "Ingest wire formats" below):
//	                               ndjson — each value a JSON array
//	                               [x1,...,xd] (weight 1) or
//	                               {"p":[...],"w":2.5} — or one binary
//	                               application/x-streamkm-batch body.
//	GET    /streams/{id}/centers   current k centers (cached fast path);
//	                               ?refresh=1 forces recomputation;
//	                               restores a hibernated stream lazily.
//	GET    /streams/{id}/stats     per-stream facts (count, residency,
//	                               memory, backend spec incl. half_life /
//	                               half_life_seconds / window_n / shards,
//	                               and the centers_cache hit/miss
//	                               counters while resident); never warms
//	                               a cold stream.
//	GET    /streams/{id}/snapshot  the stream's serialized state; served
//	                               from its file when hibernated.
//	POST   /streams/{id}/snapshot  checkpoint the stream to its file; 400
//	                               when it has none (no data directory).
//	PUT    /streams/{id}/snapshot  install the stream from the snapshot
//	                               envelope in the body and restore it
//	                               immediately — the receiving half of a
//	                               router-driven tenant migration. A
//	                               malformed envelope is 400 with nothing
//	                               registered; a taken id is 409.
//	POST   /streams/{id}/detach    freeze the stream for migration: it is
//	                               checkpointed, then every request
//	                               answers 409 until reattach or DELETE.
//	                               The optional body {"owner":"url"} is
//	                               echoed as an X-Streamkm-Owner header on
//	                               those 409s so clients can follow the
//	                               move.
//	POST   /streams/{id}/reattach  lift a detach (aborted migration) or
//	                               promote a standby copy; the stream
//	                               serves again from its snapshot.
//	PUT    /streams/{id}/standby   install the snapshot envelope in the
//	                               body as a non-serving standby copy:
//	                               registered detached — every request
//	                               409s, with the ?owner= query value as
//	                               the X-Streamkm-Owner hint — and
//	                               flagged standby, so a later ship may
//	                               overwrite it in place (the one install
//	                               allowed to). The receiving half of the
//	                               router's asynchronous standby
//	                               replication; reattach promotes the
//	                               copy to serving on failover. A ship
//	                               over an existing non-standby stream
//	                               (including a promoted copy) is 409.
//	PUT    /streams/{id}           explicit create with a JSON backend
//	                               spec {"backend","algo","k","dim",
//	                               "half_life","half_life_seconds",
//	                               "window_n","shards"} — backend is
//	                               "concurrent" (default), "decayed"
//	                               (requires exactly one of half_life /
//	                               half_life_seconds, > 0) or "windowed"
//	                               (requires window_n >= bucket size);
//	                               every field optional, zero values fall
//	                               back to the registry default. Invalid
//	                               specs (k <= 0, absurd dim, missing or
//	                               stray variant knobs) are 400; a taken
//	                               id is 409.
//	DELETE /streams/{id}           remove the stream and its snapshot.
//	GET    /streams                list all streams, resident or cold.
//	GET    /stats                  registry-wide: stream counts (total /
//	                               resident / hibernated), lifecycle
//	                               counters (evictions, restores, ...),
//	                               checkpoint and per-endpoint counters.
//	GET    /metrics                Prometheus text-format (0.0.4)
//	                               exposition of the same counters plus
//	                               fixed-bucket latency histograms:
//	                               per-endpoint families
//	                               (streamkm_endpoint_*), per-tenant
//	                               ingest/query series keyed by stream
//	                               (streamkm_tenant_*, capped at 1024
//	                               series with overflow folded into
//	                               stream="_other"), residency gauges
//	                               (streamkm_streams) and registry
//	                               lifecycle events
//	                               (streamkm_registry_events_total,
//	                               including throttle and shed).
//	                               Dependency-free: written and parsed by
//	                               internal/metrics. The router serves
//	                               the same route, with
//	                               streamkm_router_* families instead of
//	                               tenant series.
//	GET    /healthz                liveness probe.
//
// The pre-registry single-stream endpoints (POST /ingest, GET /centers,
// GET/POST /snapshot) remain mounted as aliases for a configurable
// default stream, so existing clients work unchanged. An alias runs the
// same handler as its /streams/{default}/... twin: same answer, same
// endpoint counters, same per-tenant series.
//
// The detach/install/reattach trio is the daemon half of horizontal
// sharding: cmd/streamkm-router (internal/ring) consistent-hashes
// tenants across a fleet of these servers and migrates them with
// detach → GET snapshot → PUT snapshot → DELETE, refusing writes to a
// tenant only during its own handoff window. The standby install is the
// daemon half of automatic failover: the router periodically ships each
// tenant's snapshot onto another member as a standby copy, and when
// health probes declare the owner dead, promotes the copy with one
// reattach — the stream loses at most one replication interval of
// arrivals.
//
// Each stream adopts the dimension of its first ingested point (unless
// configured); subsequent mismatches are rejected with 400 before
// touching the clusterer. Ingest requests are bounded: bodies beyond
// MaxBodyBytes and requests carrying more than MaxPoints points are cut
// off with 413 instead of read unboundedly.
//
// # Quotas and admission control
//
// Each stream's spec may carry per-tenant quotas: points_per_sec and
// bytes_per_sec (sustained ingest rates, token bucket with roughly one
// second of burst) and max_resident_bytes (a cap on the estimated
// resident footprint of the stream's stored points). A request beyond
// its quota — or an access that would restore a hibernation-thrashing
// stream yet again (the daemon's -thrash-restores / -thrash-window
// knobs) — is refused whole with 429 Too Many Requests, a Retry-After
// header (integer seconds, rounded up) and a JSON body naming the
// stream and carrying "ingested": 0; nothing is partially applied.
// Every ndjson ingest error body, whatever the status, includes the
// applied-point count under "ingested" so clients resume without
// double-counting. Quotas are operator policy, not model identity: they
// persist through the snapshot envelope but never participate in
// restore-spec matching, and a PUT with zero-valued quota fields
// inherits the daemon defaults.
//
// # Ingest wire formats
//
// Every ingest route negotiates on Content-Type.
// application/x-streamkm-batch selects the binary columnar format
// (internal/wire): a 16-byte versioned header — magic "SKMB", version,
// a weights flag, uint32 little-endian dim and count — followed by a
// flat point-major float32 coordinate block and an optional float32
// weights block. Any other content type is treated as ndjson, the
// compatibility path.
//
// Multi buffers the (byte-capped) body and decodes it in full before
// entering the registry, so a stream's lock covers only the apply.
// ndjson decoding is one pass: canonical records ('[' number (','
// number)* ']') are scanned by hand, checking JSON's number grammar
// before strconv.ParseFloat, into one coordinate block per request; any other
// record (an object, null, a non-number, a syntax or range error, the
// record at the point cap) is decoded by encoding/json and parsePoint,
// so every status, message and applied count matches a
// streaming json.Decoder over the body (FuzzNDJSONMatchesReference holds
// the two to each other, call sequence included).
//
// The two paths differ in their partial-failure contract. The ndjson
// path applies in body order: on the first malformed value it stops,
// keeps what was applied before it, and reports both the error and the
// applied count. A body whose first value is malformed, like an empty
// body, never creates a stream; a body over the byte cap applies
// nothing. The binary path is all-or-nothing: the entire body (header sanity,
// exact length, finite coordinates, positive weights) is validated
// before the first point is applied, so a 400 always means zero points
// ingested — FuzzBinaryBatch asserts exactly this, and the differential
// suite (wire_e2e_test.go) asserts both wires leave a backend in the
// identical state for identical input. Malformed bodies are 400,
// over-cap bodies (bytes or points) 413.
//
// The binary path is also the fast one: one decode pass over fixed-width
// floats, one coordinate allocation per request however many points,
// with per-point slice headers recycled through a wire.BufferPool (the
// request body buffer is pooled for both wires, one pool registry-wide
// via Registry.Buffers). BenchmarkIngestWire measures the difference
// against the same backend, on a synthetic body and on the
// Covtype-shaped body perfbench's routed workload sends.
//
// # Durability
//
// Checkpointing rides the same smallness argument that makes queries
// fast: serializing a coreset (internal/persist's versioned, checksummed
// envelope) costs milliseconds, so hibernation, periodic checkpoints and
// crash recovery all reuse one mechanism. Every write is atomic (temp
// file + fsync + rename via persist.WriteFileAtomic); a crash mid-write
// never corrupts the previous snapshot. A restarted daemon re-registers
// every snapshot in its data directory without loading any of them
// (persist.PeekBackend reads just the metadata, for every backend
// variant and format generation), so boot cost is O(# streams), not
// O(points). The crash-recovery suites (recovery_test.go,
// tenant_e2e_test.go, backend_e2e_test.go) assert kill-and-restart
// equivalence end to end, including 50+ tenants churning through
// eviction and lazy restore and decayed/windowed tenants resuming with
// their recency semantics intact.
//
// Request accounting uses metrics.EndpointStats: a few atomic adds per
// request, no locks on the hot path.
//
// # Tracing and slow-request logging
//
// Every request runs inside an internal/trace span.
// The traceparent contract is W3C trace context: a request carrying a
// valid traceparent header (00-<32 hex trace id>-<16 hex parent span
// id>-<2 hex flags>, lowercase) joins that trace as a child span; a
// request without one starts a fresh trace. cmd/streamkm-router always
// sends one — the router's own span becomes the daemon span's parent,
// so one trace id follows a request across the hop — and plain curl
// works too: the daemon just mints a new trace.
//
// Spans carry named stage timers attributing latency to the code path
// that spent it: body-read, wire-decode, lock-wait (stream lock
// acquisition inside the registry), quota (admission check),
// cluster-apply, shard-merge (rescaling and unioning the decayed or
// windowed lanes' coresets on a centers-cache miss),
// coreset-recompute (query-time k-means++), restore
// (rehydrating a hibernated stream — the stage that explains a
// multi-second outlier on an otherwise sub-millisecond endpoint) and
// checkpoint-fsync. Stages only appear when their code path ran, and
// every recorded stage duration is strictly positive.
//
//	GET /debug/traces             recent + slowest completed spans as
//	                              JSON, with started/completed counters.
//	                              Filters: ?stream=, ?endpoint=, ?trace=,
//	                              ?min_ms=, ?limit= (default 250;
//	                              limit=0 returns everything held).
//
// The ring is bounded and in-memory (trace.Recorder: 2048 recent spans
// plus the 64 slowest pinned separately), costs a few hundred
// nanoseconds per request, and is mounted outside the request
// accounting so scrapes never pollute what they read.
//
// With MultiConfig.SlowRequest (the daemon's -slow-request flag) set,
// any request at or over the threshold additionally emits one
// structured slog record — trace id, endpoint, stream, status,
// duration, the full stage breakdown and the dominant stage — so the
// slow log alone answers "what was slow and why" without a trace
// lookup. cmd/tracecheck is the CI gate over these invariants.
package server
