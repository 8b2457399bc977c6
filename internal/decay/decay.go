// Package decay adds time-decayed weighting to any coreset-based streaming
// clusterer, addressing the paper's first open question ("improved handling
// of concept drift, through the use of time-decaying weights", Section 6).
//
// The implementation uses forward decay (Cormode, Shkapenyuk, Srivastava,
// Xu 2009): the point arriving at time t is inserted with weight
// g(t) = exp(lambda * t). At query time, the weight of an age-(now - t)
// point relative to a fresh point is g(t)/g(now) = exp(-lambda*(now - t)) —
// exactly exponential decay — but no stored weight ever needs rescaling,
// because k-means centers are invariant under uniform scaling of all
// weights. The coreset tree, cache and recursive cache therefore work
// untouched: decayed weights flow through the standard merge-and-reduce.
//
// Stored weights grow as exp(lambda*t) and would overflow float64 around
// t*lambda ≈ 700. Renormalize epochs handle this: when the current scale
// exceeds a threshold, the driver rescales every stored weight by a
// constant factor (again cost-invariant), which touches each stored point
// once per ~600/lambda arrivals — amortized O(1).
//
// Sharded runs P such lanes behind one arrival clock. Each batch ends, under
// its lane's lock, by publishing the lane's view: the driver's View (for CC,
// the cached coreset of the major prefix [1, major(N)] plus the tree buckets
// after it and the partial bucket, unreduced) with the lane's reference time
// and applied count. A refresh rescales the views to the newest reference
// time and unions them without taking a lane lock and without reducing.
// Views are built with their own copies of the weights, so a lane's later
// in-place renormalization never changes one.
package decay

import (
	"fmt"
	"math"

	"streamkm/internal/core"
	"streamkm/internal/geom"
)

// rescaleThreshold triggers an epoch rescale before exp overflows.
const rescaleThreshold = 1e250

// WeightScaler rescales every stored weight by a constant factor.
// Structures that hold weighted points implement it to support forward
// decay epochs. core.CT, core.CC and core.RCC all implement it.
type WeightScaler interface {
	ScaleWeights(factor float64)
}

// Clusterer wraps a driver-based streaming clusterer with forward
// exponential decay: recent points dominate queries with half-life
// ln(2)/lambda points.
type Clusterer struct {
	driver *core.Driver
	lambda float64
	growth float64 // exp(lambda), per-point weight growth
	curW   float64 // insertion weight of the next arriving point
}

// New wraps driver with forward decay rate lambda (> 0). A point's weight
// halves every ln(2)/lambda arrivals. The driver's structure must implement
// WeightScaler (CT, CC and RCC do).
func New(driver *core.Driver, lambda float64) *Clusterer {
	if lambda <= 0 {
		panic("decay: lambda must be > 0")
	}
	if _, ok := driver.Structure().(WeightScaler); !ok {
		panic("decay: driver structure does not support weight scaling")
	}
	return &Clusterer{driver: driver, lambda: lambda, growth: math.Exp(lambda), curW: 1}
}

// Add observes one stream point with forward-decay weight. The insertion
// weight grows by exp(lambda) per point and is tracked incrementally —
// never as exp(lambda*t), which would overflow long before any epoch.
func (c *Clusterer) Add(p geom.Point) {
	if c.curW > rescaleThreshold {
		// Epoch: divide all stored weights so the insertion weight returns
		// to 1. Uniform scaling leaves cluster centers unchanged; weights of
		// points older than ~1000 half-lives underflow to zero and their
		// coreset entries get compacted away on the next merge.
		factor := 1 / c.curW
		c.driver.Structure().(WeightScaler).ScaleWeights(factor)
		c.driver.ScalePartialWeights(factor)
		c.curW = 1
	}
	c.driver.AddWeighted(geom.Weighted{P: p, W: c.curW})
	c.curW *= c.growth
}

// AddWeighted observes a point carrying weight w — equivalent to w unit
// points arriving at the same instant, so the decayed insertion weight is
// w times the current epoch weight and time advances by one tick.
func (c *Clusterer) AddWeighted(wp geom.Weighted) {
	if c.curW > rescaleThreshold {
		factor := 1 / c.curW
		c.driver.Structure().(WeightScaler).ScaleWeights(factor)
		c.driver.ScalePartialWeights(factor)
		c.curW = 1
	}
	c.driver.AddWeighted(geom.Weighted{P: wp.P, W: wp.W * c.curW})
	c.curW *= c.growth
}

// Centers returns k cluster centers for the decayed stream.
func (c *Clusterer) Centers() []geom.Point { return c.driver.Centers() }

// Count returns the number of points observed so far (the wrapped
// driver's arrival counter; decay weights fade influence, not counts).
func (c *Clusterer) Count() int64 { return c.driver.Count() }

// PointsStored reports the wrapped driver's memory in points.
func (c *Clusterer) PointsStored() int { return c.driver.PointsStored() }

// Name identifies the algorithm in reports.
func (c *Clusterer) Name() string { return "Decay(" + c.driver.Name() + ")" }

// HalfLife returns the decay half-life in points.
func (c *Clusterer) HalfLife() float64 { return math.Ln2 / c.lambda }

// Driver exposes the wrapped driver (tests and persistence).
func (c *Clusterer) Driver() *core.Driver { return c.driver }

// State is the decay wrapper's own serializable state: the rate and the
// logical clock (the insertion weight of the next arriving point, which
// encodes the position inside the current renormalize epoch). The wrapped
// driver snapshots separately through internal/persist; together the two
// restore the decayed stream exactly.
type State struct {
	Lambda float64
	CurW   float64
}

// State captures the wrapper's serializable state.
func (c *Clusterer) State() State { return State{Lambda: c.lambda, CurW: c.curW} }

// RestoreState replaces the wrapper's rate and logical clock with the
// snapshot's. The state must satisfy ValidateState; disk input should be
// validated before calling.
func (c *Clusterer) RestoreState(s State) {
	c.lambda = s.Lambda
	c.growth = math.Exp(s.Lambda)
	c.curW = s.CurW
}

// ValidateState rejects wrapper state that could not have been produced
// by State: snapshots are untrusted disk input.
func ValidateState(s State) error {
	if s.Lambda <= 0 || math.IsInf(s.Lambda, 0) || math.IsNaN(s.Lambda) {
		return fmt.Errorf("decay: invalid lambda %v in snapshot", s.Lambda)
	}
	if s.CurW < 1 || math.IsInf(s.CurW, 0) || math.IsNaN(s.CurW) {
		// curW starts at 1 and is divided back to 1 on every epoch.
		return fmt.Errorf("decay: invalid epoch weight %v in snapshot", s.CurW)
	}
	return nil
}
