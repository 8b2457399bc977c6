package decay

import (
	"fmt"
	"math"

	"streamkm/internal/core"
	"streamkm/internal/geom"
)

// maxRescaleExp is the largest weight exponent a shard tolerates before
// renormalizing: ln(rescaleThreshold), so the per-point check in
// AddBatchAt matches the single-stream Clusterer's epoch trigger.
var maxRescaleExp = math.Log(rescaleThreshold)

// Shard is one lane of a sharded forward-decay clusterer. Unlike the
// single-stream Clusterer — whose implicit logical clock advances by one
// per arrival it sees — a Shard stores weights relative to an explicit
// reference time refT: the point arriving at global time t is inserted
// with weight exp(lambda*(t-refT)). Shards of the same stream share the
// global timeline but renormalize (shift refT) independently, so a
// query-time merge rescales every shard's coreset to a common reference
// before unioning — a uniform per-shard scaling, which k-means cost is
// invariant under.
//
// Not safe for concurrent use; the sharded pipeline wraps each Shard in
// a lane lock.
type Shard struct {
	driver *core.Driver
	lambda float64
	refT   float64 // global time at which the stored-weight scale is 1
}

// NewShard wraps driver as one decay lane with rate lambda (> 0) and
// reference time refT. The driver's structure must implement
// WeightScaler, as for New.
func NewShard(driver *core.Driver, lambda, refT float64) (*Shard, error) {
	if lambda <= 0 || math.IsInf(lambda, 0) || math.IsNaN(lambda) {
		return nil, fmt.Errorf("decay: shard lambda must be positive and finite, got %v", lambda)
	}
	if math.IsInf(refT, 0) || math.IsNaN(refT) {
		return nil, fmt.Errorf("decay: shard reference time %v is not finite", refT)
	}
	if _, ok := driver.Structure().(WeightScaler); !ok {
		return nil, fmt.Errorf("decay: driver structure %s does not support weight scaling", driver.Name())
	}
	return &Shard{driver: driver, lambda: lambda, refT: refT}, nil
}

// Driver exposes the wrapped driver (persistence and tests).
func (s *Shard) Driver() *core.Driver { return s.driver }

// RefT returns the shard's current reference time.
func (s *Shard) RefT() float64 { return s.refT }

// Lambda returns the decay rate.
func (s *Shard) Lambda() float64 { return s.lambda }

// advanceRef shifts the reference time to t, scaling every stored weight
// by exp(-lambda*(t-refT)) in steps small enough that no step's factor
// underflows to zero while any stored weight is still representable.
// After four full steps the cumulative factor is below 1e-1000, at which
// point every stored float64 weight has underflowed to exact zero and
// the remaining factor is a no-op — so the loop is bounded even after
// wall-clock gaps of years against second-scale half-lives.
func (s *Shard) advanceRef(t float64) {
	e := s.lambda * (t - s.refT)
	for i := 0; i < 4 && e > 0; i++ {
		step := math.Min(e, maxRescaleExp)
		factor := math.Exp(-step)
		s.driver.Structure().(WeightScaler).ScaleWeights(factor)
		s.driver.ScalePartialWeights(factor)
		e -= step
	}
	s.refT = t
}

// AddBatchAt inserts a batch of weighted points arriving at global times
// t0, t0+step, t0+2*step, ... — step 1 for arrival-count decay (each
// point one tick), step 0 for wall-clock decay (the whole batch shares
// one timestamp). Each point lands with weight wp.W * exp(lambda*(t -
// refT)), renormalizing mid-batch whenever the scale approaches float64
// overflow, exactly like the single-stream Clusterer's epochs.
func (s *Shard) AddBatchAt(t0, step float64, wps []geom.Weighted) {
	if len(wps) == 0 {
		return
	}
	t := t0
	if s.lambda*(t-s.refT) > maxRescaleExp {
		s.advanceRef(t)
	}
	w := math.Exp(s.lambda * (t - s.refT))
	growth := math.Exp(s.lambda * step)
	for _, wp := range wps {
		if w > rescaleThreshold {
			s.advanceRef(t)
			w = 1
		}
		s.driver.AddWeighted(geom.Weighted{P: wp.P, W: wp.W * w})
		w *= growth
		t += step
	}
}

// Shard converts a restored single-stream Clusterer into lane 0 of a
// sharded pipeline, for upgrading legacy single-lock snapshots. nextT is
// the global arrival time of the next arriving point (count+1 in
// arrival-count mode): the legacy wrapper would insert that point with
// weight curW, and exp(lambda*(nextT-refT)) = curW fixes the reference
// time that makes the shard continue the identical weight timeline.
func (c *Clusterer) Shard(nextT float64) (*Shard, error) {
	return NewShard(c.driver, c.lambda, nextT-math.Log(c.curW)/c.lambda)
}
