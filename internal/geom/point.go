// Package geom provides the Euclidean point substrate used by every
// clustering algorithm in this repository: dense points, weighted points,
// squared distances, and centroid arithmetic.
//
// All algorithms in the paper operate on points from R^d with positive
// weights (Section 2 of Zhang, Tangwongsan, Tirthapura, "Streaming k-Means
// Clustering with Fast Queries", ICDE 2017). The k-means objective is
//
//	phi_C(P) = sum_{x in P} w(x) * min_{c in C} ||x - c||^2
//
// which this package exposes the primitives for.
package geom

import (
	"fmt"
	"math"
)

// Point is a dense point in R^d. The zero value is a 0-dimensional point.
type Point []float64

// Clone returns a deep copy of p.
func (p Point) Clone() Point {
	if p == nil {
		return nil
	}
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// AppendOwned copies p's coordinates into block and returns the grown
// block together with the copy, whose capacity ends at its length so an
// append to it can never reach a neighbouring copy. When block lacks room
// for p, a fresh block sized for room points of p's dimension replaces it:
// a caller filling a bucket passes the number of points still to come, so
// one allocation serves the whole bucket. Copies already handed out are
// never written again.
func AppendOwned(block []float64, p Point, room int) ([]float64, Point) {
	if len(p) == 0 {
		return block, p
	}
	if cap(block)-len(block) < len(p) {
		block = make([]float64, 0, max(room, 1)*len(p))
	}
	start := len(block)
	block = append(block, p...)
	return block, Point(block[start:len(block):len(block)])
}

// Dim returns the dimensionality of p.
func (p Point) Dim() int { return len(p) }

// Equal reports whether p and q have identical coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// AddScaled adds s*q to p in place. p and q must have the same dimension.
func (p Point) AddScaled(q Point, s float64) {
	for i := range p {
		p[i] += s * q[i]
	}
}

// Scale multiplies every coordinate of p by s, in place.
func (p Point) Scale(s float64) {
	for i := range p {
		p[i] *= s
	}
}

// IsFinite reports whether every coordinate of p is finite (no NaN/Inf).
func (p Point) IsFinite() bool {
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// SqDist returns the squared Euclidean distance ||a-b||^2, computed by
// the 4-wide unrolled kernel (see kernel.go for the summation-order
// caveat). It panics if the dimensions differ, since mixing dimensions is
// always a programming error in this codebase.
func SqDist(a, b Point) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("geom: dimension mismatch %d vs %d", len(a), len(b)))
	}
	return sqDist4(a, b)
}

// Dist returns the Euclidean distance ||a-b||.
func Dist(a, b Point) float64 { return math.Sqrt(SqDist(a, b)) }

// MinSqDist returns the squared distance from p to the nearest point in set,
// along with the index of that nearest point. If set is empty it returns
// (+Inf, -1).
func MinSqDist(p Point, set []Point) (float64, int) {
	best := math.Inf(1)
	idx := -1
	for i, c := range set {
		if d := SqDist(p, c); d < best {
			best = d
			idx = i
		}
	}
	return best, idx
}
