package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"streamkm/internal/wire"
)

// Ingest hardening defaults. A request is refused with 413 once its body
// exceeds the byte cap or carries more points than the point cap —
// before the excess is buffered or applied — so a single client cannot
// make the daemon read unboundedly. Both caps are configurable;
// a negative configured value disables the cap.
const (
	defaultMaxBodyBytes = 64 << 20 // 64 MiB per ingest request
	defaultMaxPoints    = 1 << 20  // ~1M points per ingest request
)

// resolveLimit maps a configured cap to its effective value: 0 selects
// the default, negative disables (0 means "no limit" internally).
func resolveLimit(v, def int64) int64 {
	switch {
	case v == 0:
		return def
	case v < 0:
		return 0
	}
	return v
}

// limitBody wraps an ingest request body with http.MaxBytesReader when a
// byte cap applies; exceeding it surfaces as *http.MaxBytesError from
// the read and closes the connection after the 413.
func limitBody(w http.ResponseWriter, r *http.Request, max int64) io.Reader {
	if max <= 0 {
		return r.Body
	}
	return http.MaxBytesReader(w, r.Body, max)
}

// decodedIngest is an ingest body decoded in full before any backend is
// touched, so a stream lock covers only the apply. Exactly one of binary
// and ndjson holds the records.
type decodedIngest struct {
	binary *wire.Batch
	ndjson ndjsonBody
}

// decodeIngest decodes a buffered ingest body in the wire format the
// request's Content-Type negotiates. A nonzero status means the body can
// apply nothing and is the answer to send, with ingested 0; otherwise
// apply feeds the records to a backend. Return the result's binary batch
// with pool.PutBatch once it has been applied.
func decodeIngest(r *http.Request, raw []byte, maxPoints int64, pool *wire.BufferPool) (decodedIngest, int, string) {
	if isBinaryBatch(r) {
		batch, status, msg := decodeBinary(raw, maxPoints, pool)
		return decodedIngest{binary: batch}, status, msg
	}
	body := decodeNDJSON(raw, maxPoints)
	if len(body.points) == 0 && body.status != 0 {
		return decodedIngest{}, body.status, body.msg
	}
	return decodedIngest{ndjson: body}, 0, ""
}

// len returns the number of records apply offers the backend. A body
// with none must not create a stream.
func (d *decodedIngest) len() int {
	if d.binary != nil {
		return d.binary.Len()
	}
	return len(d.ndjson.points)
}

// apply feeds the decoded records to c in AddBatch chunks of maxBatch
// points (one shard-lock acquisition per chunk). It returns the applied
// count and, when the request failed part-way, the HTTP status and
// message to report alongside it; status 0 means the whole body landed.
func (d *decodedIngest) apply(maxBatch int, c Clusterer, checkDim func([]float64) error) (ingested int64, status int, msg string) {
	if d.binary != nil {
		return applyBinary(d.binary, maxBatch, c, checkDim)
	}
	return d.ndjson.apply(maxBatch, c, checkDim)
}

// ndjsonBody is an ndjson ingest body decoded ahead of application: the
// records that parsed, in order, and the failure that stopped decoding
// at record len(points), if any. Decoding runs before the stream lock;
// apply then checks each record against the stream and reports the
// first failure in body order, so the client sees what a streaming
// decoder would have reported.
type ndjsonBody struct {
	points  [][]float64
	weights []float64 // parallel to points; nil while every record has weight 1
	status  int       // 0 when decoding reached the end of the body
	msg     string
}

// decodeNDJSON decodes an ndjson body in one pass. Canonical records —
// '[' number (',' number)* ']', with JSON whitespace between tokens —
// are scanned by hand into one coordinate block for the whole request.
// Any other record (an object, null, a non-number, a syntax or range
// error, or the record at the point cap) is decoded by parsePoint and a
// json.Decoder started at it or at the first of the run of such records
// it ends, which gives it exactly the status and message a streaming
// json.Decoder over the whole body would.
// Decoding stops at the first record that fails; maxPoints 0 means
// uncapped.
func decodeNDJSON(raw []byte, maxPoints int64) ndjsonBody {
	// Every coordinate the scanner keeps sits after its own '[' or ',',
	// and takes at least two bytes with its separator, so the block is
	// sized once, when the scanner first meets a '[', and never grows.
	// Every record that parses holds a '['.
	records := bytes.Count(raw, []byte{'['})
	coords := min(records+bytes.Count(raw, []byte{','}), len(raw)/2+1)
	if maxPoints > 0 && int64(records) > maxPoints {
		records = int(maxPoints)
	}
	b := ndjsonBody{points: make([][]float64, 0, records)}
	var flat []float64
	// dec decodes a run of records the scanner does not take, starting at
	// raw[decOff]; a record the scanner takes ends the run.
	var (
		dec    *json.Decoder
		decOff int
	)
	for off := skipSpace(raw, 0); off < len(raw); off = skipSpace(raw, off) {
		i := len(b.points)
		if maxPoints <= 0 || int64(i) < maxPoints {
			if flat == nil && raw[off] == '[' {
				flat = make([]float64, 0, coords)
			}
			if p, next, ok := scanPoint(raw, off, &flat); ok {
				b.add(p, 1)
				off, dec = next, nil
				continue
			}
		}
		if dec == nil {
			dec, decOff = json.NewDecoder(bytes.NewReader(raw[off:])), off
		}
		var rec json.RawMessage
		if err := dec.Decode(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return b.fail(http.StatusBadRequest, "malformed ingest body: %v", err)
		}
		// The cap is checked after the record's syntax, as a streaming
		// decoder meets them.
		if maxPoints > 0 && int64(i) >= maxPoints {
			return b.fail(http.StatusRequestEntityTooLarge, "request exceeds %d points per request", maxPoints)
		}
		p, w, err := parsePoint(rec)
		if err != nil {
			return b.fail(http.StatusBadRequest, "point %d: %v", i, err)
		}
		b.add(p, w)
		off = decOff + int(dec.InputOffset())
	}
	return b
}

func (b *ndjsonBody) add(p []float64, w float64) {
	if w != 1 && b.weights == nil {
		b.weights = make([]float64, len(b.points), cap(b.points))
		for i := range b.weights {
			b.weights[i] = 1
		}
	}
	b.points = append(b.points, p)
	if b.weights != nil {
		b.weights = append(b.weights, w)
	}
}

func (b *ndjsonBody) fail(status int, format string, args ...interface{}) ndjsonBody {
	b.status, b.msg = status, fmt.Sprintf(format, args...)
	return *b
}

// apply feeds the decoded records to c in order: unit-weight records in
// AddBatch chunks of up to maxBatch, each weighted record through
// AddWeighted after flushing the chunk before it. checkDim vets every
// record. On the first failure — a record's dimension, a weighted record
// the backend cannot take, or the decode failure that ended the body —
// it stops, keeps what was already applied, and returns the status and
// message to report alongside the applied count.
func (b *ndjsonBody) apply(maxBatch int, c Clusterer, checkDim func([]float64) error) (ingested int64, status int, msg string) {
	start := 0 // first record of the pending chunk
	flush := func(end int) {
		if end > start {
			c.AddBatch(b.points[start:end:end])
			ingested += int64(end - start)
		}
		start = end
	}
	for i, p := range b.points {
		if err := checkDim(p); err != nil {
			flush(i)
			return ingested, http.StatusBadRequest, fmt.Sprintf("point %d: %v", i, err)
		}
		if b.weights != nil && b.weights[i] != 1 {
			flush(i)
			wa, ok := c.(WeightedAdder)
			if !ok {
				return ingested, http.StatusBadRequest, fmt.Sprintf("backend %s does not accept weighted points", c.Name())
			}
			wa.AddWeighted(p, b.weights[i])
			ingested++
			start = i + 1
			continue
		}
		if i+1-start == maxBatch {
			flush(i + 1)
		}
	}
	flush(len(b.points))
	return ingested, b.status, b.msg
}

// scanPoint scans the canonical record at raw[off]: '[' number
// (',' number)* ']' with JSON whitespace between tokens. On success it
// appends the record's coordinates to *flat and returns them as a
// capacity-capped point, with the offset just past the ']'. For anything
// else — including a number strconv.ParseFloat rejects as out of range —
// ok is false and *flat is unchanged.
func scanPoint(raw []byte, off int, flat *[]float64) (p []float64, next int, ok bool) {
	if raw[off] != '[' {
		return nil, 0, false
	}
	fl := *flat
	start := len(fl)
	for i := off + 1; ; {
		i = skipSpace(raw, i)
		end := numberEnd(raw, i)
		if end < 0 {
			return nil, 0, false
		}
		v, err := strconv.ParseFloat(string(raw[i:end]), 64)
		if err != nil {
			return nil, 0, false
		}
		fl = append(fl, v)
		if i = skipSpace(raw, end); i == len(raw) {
			return nil, 0, false
		}
		switch raw[i] {
		case ',':
			i++
		case ']':
			*flat = fl
			return fl[start:len(fl):len(fl)], i + 1, true
		default:
			return nil, 0, false
		}
	}
}

// numberEnd returns the end of the JSON number starting at raw[i], or -1
// when none starts there. It checks JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, because
// strconv.ParseFloat alone also accepts hex, "inf", "+1", ".5" and
// underscores.
func numberEnd(raw []byte, i int) int {
	if i < len(raw) && raw[i] == '-' {
		i++
	}
	switch {
	case i < len(raw) && raw[i] == '0':
		i++
	case i < len(raw) && '1' <= raw[i] && raw[i] <= '9':
		i = digitsEnd(raw, i+1)
	default:
		return -1
	}
	if i < len(raw) && raw[i] == '.' {
		j := digitsEnd(raw, i+1)
		if j == i+1 {
			return -1
		}
		i = j
	}
	if i < len(raw) && (raw[i] == 'e' || raw[i] == 'E') {
		i++
		if i < len(raw) && (raw[i] == '+' || raw[i] == '-') {
			i++
		}
		j := digitsEnd(raw, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

func digitsEnd(raw []byte, i int) int {
	for i < len(raw) && '0' <= raw[i] && raw[i] <= '9' {
		i++
	}
	return i
}

// skipSpace returns the offset of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(raw []byte, i int) int {
	for i < len(raw) && (raw[i] == ' ' || raw[i] == '\n' || raw[i] == '\t' || raw[i] == '\r') {
		i++
	}
	return i
}

// ingestValue is one ndjson value in an ingest body: either a bare JSON
// array (a unit-weight point) or an object {"p":[...],"w":2.5}. W is a
// pointer so an absent weight (default 1) is distinguishable from an
// explicit, invalid "w":0.
type ingestValue struct {
	P []float64 `json:"p"`
	W *float64  `json:"w"`
}

// parsePoint interprets one raw ingest value.
func parsePoint(raw json.RawMessage) ([]float64, float64, error) {
	i := skipSpace(raw, 0)
	if i < len(raw) && raw[i] == '{' {
		var v ingestValue
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, 0, fmt.Errorf("malformed weighted point: %v", err)
		}
		w := 1.0
		if v.W != nil {
			w = *v.W
		}
		if w <= 0 {
			return nil, 0, fmt.Errorf("weight must be > 0, got %v", w)
		}
		if len(v.P) == 0 {
			return nil, 0, errors.New(`weighted point has empty "p"`)
		}
		return v.P, w, nil
	}
	var p []float64
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, 0, fmt.Errorf("expected a JSON array of coordinates: %v", err)
	}
	if len(p) == 0 {
		return nil, 0, errors.New("empty point")
	}
	return p, 1, nil
}
