package wire

import (
	"io"
	"math/bits"
	"sync"
)

// BufferPool recycles the two per-request allocations of the ingest hot
// path that are safe to reuse: the raw request-body byte buffer and the
// per-point slice-header array a Batch hands to AddBatch. Both are keyed
// by capacity class (next power of two), so a tenant mix of small and
// huge batches never makes small requests drag 64 MiB buffers around.
//
// What is deliberately NOT pooled: the flat float64 coordinate block.
// The lane-sharded backends copy the coordinates they keep (core.Driver
// and window.Clusterer own their bucket storage), but not every
// Clusterer does: OnlineCC's partial bucket still aliases its input, so
// recycling coordinates could alias live tenant state. The byte buffer
// and header array, by contrast, are
// dead the moment the shard hands off — AddBatch implementations copy
// the outer slice's elements into their own geom.Weighted records.
//
// The zero value is ready to use; a nil *BufferPool degrades every
// operation to plain allocation.
type BufferPool struct {
	bytes   [poolClasses]sync.Pool // []byte, cap 1<<(c+poolMinShift)
	headers [poolClasses]sync.Pool // [][]float64, cap 1<<(c+poolMinShift)
}

const (
	poolMinShift = 9  // smallest class: 512 entries
	poolClasses  = 18 // largest class: 512 << 17 = 64 Mi entries
)

// classFor returns the size class whose capacity holds n, or -1 when n
// is too large to pool.
func classFor(n int) int {
	if n <= 0 {
		return 0
	}
	c := bits.Len(uint(n-1)) - poolMinShift
	if c < 0 {
		return 0
	}
	if c >= poolClasses {
		return -1
	}
	return c
}

// GetBytes returns a zero-length byte buffer with capacity at least n.
func (p *BufferPool) GetBytes(n int) []byte {
	c := classFor(n)
	if p == nil || c < 0 {
		return make([]byte, 0, n)
	}
	if v := p.bytes[c].Get(); v != nil {
		return v.([]byte)[:0]
	}
	return make([]byte, 0, 1<<(c+poolMinShift))
}

// PutBytes recycles a buffer obtained from GetBytes. Buffers whose
// capacity matches no class (grown past the largest, or foreign) are
// dropped for the GC.
func (p *BufferPool) PutBytes(b []byte) {
	if p == nil || b == nil {
		return
	}
	c := classFor(cap(b))
	if c < 0 || cap(b) != 1<<(c+poolMinShift) {
		return
	}
	p.bytes[c].Put(b[:0]) //nolint:staticcheck // slice sized by class, no alloc
}

// getHeaders returns a zero-length point-header slice with capacity at
// least n. Unexported: Decode is the only producer of pooled headers.
func (p *BufferPool) getHeaders(n int) [][]float64 {
	c := classFor(n)
	if p == nil || c < 0 {
		return make([][]float64, 0, n)
	}
	if v := p.headers[c].Get(); v != nil {
		return v.([][]float64)[:0]
	}
	return make([][]float64, 0, 1<<(c+poolMinShift))
}

// PutBatch recycles b's point-header slice after the batch has been
// applied (the shard handoff point). The headers are cleared first so a
// pooled array never pins a tenant's coordinate block alive. The batch
// must not be used afterwards.
func (p *BufferPool) PutBatch(b *Batch) {
	if p == nil || b == nil || b.Points == nil {
		return
	}
	hs := b.Points
	b.Points = nil
	c := classFor(cap(hs))
	if c < 0 || cap(hs) != 1<<(c+poolMinShift) {
		return
	}
	hs = hs[:cap(hs)]
	for i := range hs {
		hs[i] = nil
	}
	p.headers[c].Put(hs[:0]) //nolint:staticcheck // slice sized by class, no alloc
}

// ReadAll drains r into buf (which may be nil or pooled), growing as
// needed, and returns the filled slice — io.ReadAll with caller-supplied
// storage, so a pooled buffer can absorb the request body without a
// fresh allocation per request.
func ReadAll(r io.Reader, buf []byte) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			if err == io.EOF {
				return buf, nil
			}
			return buf, err
		}
	}
}
