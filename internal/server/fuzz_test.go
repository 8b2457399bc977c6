package server

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"streamkm/internal/wire"
)

// sinkClusterer is a minimal backend for fuzzing the HTTP parsing layer:
// it just counts what reaches it, so fuzz throughput is bounded by the
// parser, not by clustering.
type sinkClusterer struct {
	count atomic.Int64
}

func (s *sinkClusterer) AddBatch(pts [][]float64)           { s.count.Add(int64(len(pts))) }
func (s *sinkClusterer) AddWeighted(p []float64, w float64) { s.count.Add(1) }
func (s *sinkClusterer) Centers() [][]float64               { return [][]float64{} }
func (s *sinkClusterer) Count() int64                       { return s.count.Load() }
func (s *sinkClusterer) PointsStored() int                  { return 0 }
func (s *sinkClusterer) Name() string                       { return "sink" }

// ingestSeeds is the ndjson seed corpus FuzzIngest and
// FuzzNDJSONMatchesReference share.
var ingestSeeds = []string{
	"[1,2]\n[3,4]\n",
	`{"p":[1,2],"w":2.5}` + "\n[0.5,0.5]\n",
	`{"p":[1,2],"w":0}`,
	`{"p":[],"w":1}`,
	`{"w":3}`,
	"[]",
	"[1,2][3]",
	"[1e999]",
	`"not a point"`,
	"[1,2]\nnull\n",
	"{\"p\":[1,2",
	string([]byte{0xff, 0xfe, 0x00, 0x7b}),
	"",
}

// FuzzIngest feeds arbitrary bytes to the ndjson ingest endpoint
// (handleIngest + parsePoint): the handler must never panic, and anything
// malformed must yield a clean 4xx — mirroring the persist package's
// untrusted-input fuzz harness. Run as a plain test this exercises the
// seed corpus; `go test -fuzz=FuzzIngest ./internal/server` explores
// further.
func FuzzIngest(f *testing.F) {
	for _, seed := range ingestSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		srv := New(&sinkClusterer{}, Config{K: 2, MaxBatch: 8})
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(data))
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req) // must not panic
		if c := rec.Code; c != http.StatusOK && (c < 400 || c > 499) {
			t.Fatalf("status %d for body %q (want 200 or 4xx)", c, data)
		}
	})
}

// FuzzBinaryBatch feeds arbitrary bytes to the binary ingest path
// (application/x-streamkm-batch → wire.Decode → applyBinary). Three
// invariants, whatever the bytes: the handler never panics, a non-200
// answer is a clean 4xx, and — the binary format's stronger contract —
// a rejected body ingests NOTHING (the ndjson path may legitimately
// report partial progress; the binary path validates everything before
// applying anything). Truncated headers, hostile count*dim products,
// NaN/Inf coordinates and dimension mismatches all ride this harness;
// testdata/fuzz/FuzzBinaryBatch holds the committed seed corpus.
func FuzzBinaryBatch(f *testing.F) {
	valid, err := wire.EncodeBatch([][]float64{{1, 2}, {3, 4}}, nil)
	if err != nil {
		f.Fatal(err)
	}
	weighted, err := wire.EncodeBatch([][]float64{{1, 2}}, []float64{2.5})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(weighted)
	f.Add(valid[:len(valid)-3])               // truncated coordinates
	f.Add(valid[:12])                         // truncated header
	f.Add([]byte{})                           // empty body
	f.Add([]byte("SKMB"))                     // magic only
	f.Add(append([]byte(nil), valid[:16]...)) // header with no payload
	nan := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(nan[16:], math.Float32bits(float32(math.NaN())))
	f.Add(nan)
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(huge[8:12], math.MaxUint32)  // dim
	binary.LittleEndian.PutUint32(huge[12:16], math.MaxUint32) // count
	f.Add(huge)
	badmagic := append([]byte(nil), valid...)
	badmagic[0] = 'X'
	f.Add(badmagic)

	f.Fuzz(func(t *testing.T, data []byte) {
		sink := &sinkClusterer{}
		srv := New(sink, Config{K: 2, Dim: 2, MaxBatch: 8})
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(data))
		req.Header.Set("Content-Type", wire.ContentType)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req) // must not panic
		switch c := rec.Code; {
		case c == http.StatusOK:
		case c >= 400 && c <= 499:
			if n := sink.count.Load(); n != 0 {
				t.Fatalf("status %d but %d points ingested from %q (binary ingest must be all-or-nothing)", c, n, data)
			}
		default:
			t.Fatalf("status %d for body %q (want 200 or 4xx)", c, data)
		}
	})
}

// FuzzParsePoint fuzzes the single-value parser directly: no input may
// panic, and accepted values must be well-formed (non-empty point,
// positive weight).
func FuzzParsePoint(f *testing.F) {
	f.Add([]byte("[1,2,3]"))
	f.Add([]byte(`{"p":[9],"w":0.25}`))
	f.Add([]byte("  \t\n[4]"))
	f.Add([]byte("{}"))
	f.Add([]byte("true"))
	f.Add([]byte("[null]"))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, w, err := parsePoint(data)
		if err != nil {
			return // rejection is the expected outcome for noise
		}
		if len(p) == 0 {
			t.Fatalf("accepted empty point from %q", data)
		}
		if !(w > 0) {
			t.Fatalf("accepted non-positive weight %v from %q", w, data)
		}
	})
}
