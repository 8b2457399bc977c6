package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// This file holds the ndjson ingest path as it was before decoding moved
// ahead of the stream lock — Multi's first-record probe followed by a
// streaming json.Decoder loop that interleaved decoding with application
// — as the reference decodeNDJSON and ndjsonBody.apply must match.

// referenceIngest runs the reference path over raw. created reports
// whether Multi would have created a missing stream for the body.
func referenceIngest(raw []byte, maxBatch int, maxPoints int64, c Clusterer, checkDim func([]float64) error) (created bool, ingested int64, status int, msg string) {
	probe := json.NewDecoder(bytes.NewReader(raw))
	var first json.RawMessage
	if err := probe.Decode(&first); err != nil {
		if !errors.Is(err, io.EOF) {
			return false, 0, http.StatusBadRequest, fmt.Sprintf("malformed ingest body: %v", err)
		}
	} else if _, _, err := parsePoint(first); err != nil {
		return false, 0, http.StatusBadRequest, fmt.Sprintf("point 0: %v", err)
	} else {
		created = true
	}
	ingested, status, msg = referenceRunIngest(bytes.NewReader(raw), maxBatch, maxPoints, c, checkDim)
	return created, ingested, status, msg
}

// referenceRunIngest streams ndjson points out of body and applies them
// to c in batches of maxBatch points, stopping at the first failure.
func referenceRunIngest(body io.Reader, maxBatch int, maxPoints int64, c Clusterer, checkDim func([]float64) error) (ingested int64, status int, msg string) {
	dec := json.NewDecoder(body)
	batch := make([][]float64, 0, maxBatch)
	flush := func() {
		if len(batch) > 0 {
			c.AddBatch(batch)
			ingested += int64(len(batch))
			batch = batch[:0]
		}
	}
	fail := func(st int, format string, args ...interface{}) (int64, int, string) {
		flush()
		return ingested, st, fmt.Sprintf(format, args...)
	}
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				return fail(http.StatusRequestEntityTooLarge,
					"request body exceeds %d bytes", mbe.Limit)
			}
			return fail(http.StatusBadRequest, "malformed ingest body: %v", err)
		}
		if maxPoints > 0 && ingested+int64(len(batch)) >= maxPoints {
			return fail(http.StatusRequestEntityTooLarge,
				"request exceeds %d points per request", maxPoints)
		}
		p, weight, err := parsePoint(raw)
		if err != nil {
			return fail(http.StatusBadRequest, "point %d: %v", ingested+int64(len(batch)), err)
		}
		if err := checkDim(p); err != nil {
			return fail(http.StatusBadRequest, "point %d: %v", ingested+int64(len(batch)), err)
		}
		if weight != 1 {
			wa, ok := c.(WeightedAdder)
			if !ok {
				return fail(http.StatusBadRequest, "backend %s does not accept weighted points", c.Name())
			}
			flush()
			wa.AddWeighted(p, weight)
			ingested++
			continue
		}
		batch = append(batch, p)
		if len(batch) == maxBatch {
			flush()
		}
	}
	flush()
	return ingested, 0, ""
}

// decodedIngestPath runs the serving path over raw as Multi.handleIngest
// composes it: decode the whole body, answer a body that can apply
// nothing at once, else apply.
func decodedIngestPath(raw []byte, maxBatch int, maxPoints int64, c Clusterer, checkDim func([]float64) error) (created bool, ingested int64, status int, msg string) {
	req := httptest.NewRequest(http.MethodPost, "/ingest", nil)
	req.Header.Set("Content-Type", "application/x-ndjson")
	body, status, msg := decodeIngest(req, raw, maxPoints, nil)
	if status != 0 {
		return false, 0, status, msg
	}
	ingested, status, msg = body.apply(maxBatch, c, checkDim)
	return body.len() > 0, ingested, status, msg
}

// ingestCall is one backend call, with coordinates and weight as bits so
// -0 and 0 differ.
type ingestCall struct {
	Weighted bool
	W        uint64
	Points   [][]uint64
}

// recordingClusterer logs every AddBatch. It takes no weighted points;
// weightedRecorder adds AddWeighted.
type recordingClusterer struct{ calls []ingestCall }

func floatBits(p []float64) []uint64 {
	out := make([]uint64, len(p))
	for i, v := range p {
		out[i] = math.Float64bits(v)
	}
	return out
}

func (r *recordingClusterer) AddBatch(pts [][]float64) {
	c := ingestCall{Points: make([][]uint64, len(pts))}
	for i, p := range pts {
		c.Points[i] = floatBits(p)
	}
	r.calls = append(r.calls, c)
}
func (r *recordingClusterer) Centers() [][]float64 { return nil }
func (r *recordingClusterer) Count() int64         { return 0 }
func (r *recordingClusterer) PointsStored() int    { return 0 }
func (r *recordingClusterer) Name() string         { return "recorder" }

type weightedRecorder struct{ *recordingClusterer }

func (r weightedRecorder) AddWeighted(p []float64, w float64) {
	r.calls = append(r.calls, ingestCall{Weighted: true, W: math.Float64bits(w), Points: [][]uint64{floatBits(p)}})
}

// adoptDim returns a dimension check that adopts the first point's
// dimension, as a stream created without one does.
func adoptDim() func([]float64) error {
	dim := 0
	return func(p []float64) error {
		if dim == 0 {
			dim = len(p)
		}
		if len(p) != dim {
			return fmt.Errorf("dimension mismatch: stream is %d-dimensional, got %d", dim, len(p))
		}
		return nil
	}
}

// ingestOutcome is everything a client or a backend can observe of one
// ndjson ingest.
type ingestOutcome struct {
	Created  bool
	Ingested int64
	Status   int
	Msg      string
	Calls    []ingestCall
}

func runIngestPath(path func([]byte, int, int64, Clusterer, func([]float64) error) (bool, int64, int, string),
	data []byte, weighted bool) ingestOutcome {
	rec := &recordingClusterer{}
	var c Clusterer = rec
	if weighted {
		c = weightedRecorder{rec}
	}
	var o ingestOutcome
	o.Created, o.Ingested, o.Status, o.Msg = path(data, 3, 5, c, adoptDim())
	o.Calls = rec.calls
	return o
}

// FuzzNDJSONMatchesReference holds the decode-first ndjson path to the
// reference on arbitrary bytes, with MaxBatch 3 and MaxPoints 5, for a
// backend that takes weighted points and one that does not: the same
// status, message, ingested count and stream creation, and the same
// AddBatch/AddWeighted call sequence with bit-identical coordinates and
// weights.
func FuzzNDJSONMatchesReference(f *testing.F) {
	for _, seed := range ingestSeeds {
		f.Add([]byte(seed))
	}
	for _, seed := range []string{
		"[-0]", "[1e400]", "[1e-400]", "[01]", "[1.]", "[.5]", "[1,null]", "[1][2]", "[1],[2]",
		`{"P":[1]}`, `{"p":[1],"w":2}`, `{"p":[5,6],"p":[null,7]}`, `{"w":null,"p":[1]}`,
		"\xef\xbb\xbf[1,2]\n",
		"[1,2]\n[3,4]\n[5]\n",
		"[1]\n[2]\n[3]\n[4]\n[5]\n[6]\n",
		"[1]\n[2]\n[3]\n[4]\n[5]\n\"x\"\n",
		"[1]\n[2]\n[3]\n[4]\n[5]\n[6,\n",
		"[1]\n[2]\n[3]\n[4]\n[5]\n",
		" [ 1 , -2.5E-3 ]\r\n\t[1e5,0.25]  ",
		"[1,2]\n{\"p\":[3,4],\"w\":2.5}\n[5,6]\n[7,8]\n[9,10]\n",
		"[1]\n{\"p\":[2],\"w\":1}\n[3]x",
		"{\"p\":[1],\"w\":2} {\"p\":[2],\"w\":3}\n[3]\n{\"p\":[4],\"w\":2}[5]null",
		"[0x1]", "[+1]", "[1_0]", "[inf]", "[-]", "[1e]", "[1e+]", "[1.5e-7,2]",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, weighted := range []bool{true, false} {
			want := runIngestPath(referenceIngest, data, weighted)
			got := runIngestPath(decodedIngestPath, data, weighted)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("body %q (weighted backend %v):\n got %+v\nwant %+v", data, weighted, got, want)
			}
		}
	})
}

// TestNDJSONDecodeAllocations pins the point of the scanner: a body of
// canonical records costs a handful of allocations, not several per
// point.
func TestNDJSONDecodeAllocations(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, "[%d.125,-%d.5e-3,0.1]\n", i, i)
	}
	raw := []byte(b.String())
	allocs := testing.AllocsPerRun(20, func() {
		if body := decodeNDJSON(raw, 0); len(body.points) != 200 || body.status != 0 {
			t.Fatalf("decoded %d points, status %d %s", len(body.points), body.status, body.msg)
		}
	})
	if allocs > 4 {
		t.Fatalf("decoding 200 canonical records took %v allocations, want at most 4", allocs)
	}
}
