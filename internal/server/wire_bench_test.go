package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"streamkm/internal/datagen"
	"streamkm/internal/registry"
	"streamkm/internal/wire"
)

// BenchmarkIngestWire measures the HTTP ingest path's codec cost on both
// wire formats with clustering stubbed out (sinkClusterer, the default
// stream of a one-stream Multi, posted to through POST /ingest), so the
// delta is purely parse + allocate: the overhead the binary columnar
// format exists to remove. Two body shapes: synthetic500 is 500 points of short
// values; covtype1000 is what perfbench's routed workload sends, 1000
// Covtype stand-in points quantized to float32 and formatted shortest
// ('g', -1), about 244 KB of ndjson per request. Points/op are equal
// between the wires of a shape; compare points/s and allocs/op.
func BenchmarkIngestWire(b *testing.B) {
	const dim = 54 // covtype's dimensionality, the repo's reference dataset
	synthetic := make([][]float64, 500)
	for i := range synthetic {
		p := make([]float64, dim)
		for j := range p {
			p[j] = float64(i%7) + float64(j)*0.25
		}
		synthetic[i] = p
	}
	covtype := make([][]float64, 1000)
	for i, src := range datagen.Covtype(len(covtype), 1).Points {
		p := make([]float64, len(src))
		for j, v := range src {
			p[j] = wire.Quantize(v)
		}
		covtype[i] = p
	}

	run := func(b *testing.B, contentType string, body []byte, points int) {
		m := NewMulti(singleStreamRegistry(b, registry.Config{
			Default: registry.StreamConfig{K: 2, Dim: dim},
		}, &sinkClusterer{}, nil), MultiConfig{MaxBatch: 512})
		if err := m.Registry().Create("default", registry.StreamConfig{}); err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(m.Handler())
		defer ts.Close()
		client := ts.Client()
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := client.Post(ts.URL+"/ingest", contentType, bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
		b.ReportMetric(float64(points)*float64(b.N)/b.Elapsed().Seconds(), "points/s")
	}
	for _, shape := range []struct {
		name string
		pts  [][]float64
	}{{"synthetic500", synthetic}, {"covtype1000", covtype}} {
		nd := []byte(pointsNDJSON(shape.pts)) // %v formats as 'g', -1
		bin, err := wire.EncodeBatch(shape.pts, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(shape.name+"/ndjson", func(b *testing.B) { run(b, "application/x-ndjson", nd, len(shape.pts)) })
		b.Run(shape.name+"/binary", func(b *testing.B) { run(b, wire.ContentType, bin, len(shape.pts)) })
	}
}

// BenchmarkBinaryDecode isolates the codec itself (no HTTP): one batch
// decode per op, pooled buffers, the allocation budget the wire package
// promises (one coordinate block + pooled headers).
func BenchmarkBinaryDecode(b *testing.B) {
	pts := make([][]float64, 500)
	for i := range pts {
		p := make([]float64, 54)
		for j := range p {
			p[j] = float64(i) * 0.5
		}
		pts[i] = p
	}
	raw, err := wire.EncodeBatch(pts, nil)
	if err != nil {
		b.Fatal(err)
	}
	var pool wire.BufferPool
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch, err := wire.Decode(raw, wire.Limits{}, &pool)
		if err != nil {
			b.Fatal(err)
		}
		pool.PutBatch(batch)
	}
}
