package window

import (
	"fmt"

	"streamkm/internal/geom"
)

// BucketSnapshot is the exported state of one histogram bucket.
type BucketSnapshot struct {
	Points     []geom.Weighted
	Start, End int64
}

// Snapshot is the complete logical state of a sliding-window clusterer:
// configuration, the exponential histogram of coresets, the partial base
// bucket, and the arrival clock. Randomness is not captured, as
// everywhere in internal/persist.
type Snapshot struct {
	K       int
	M       int
	R       int
	WindowN int64
	Count   int64

	PartialStart int64
	// PartialEnd is the arrival index of the newest partial point. Zero
	// in snapshots written before shard-mode ingest (and while the
	// partial is empty); Restore reconstructs it as
	// PartialStart+len(Partial)-1, exact for single-stream snapshots
	// (their partial spans are contiguous).
	PartialEnd int64
	Partial    []geom.Weighted
	Levels     [][]BucketSnapshot
}

// Snapshot captures the clusterer's complete logical state (deep copies).
func (c *Clusterer) Snapshot() Snapshot {
	s := Snapshot{
		K: c.k, M: c.m, R: c.r, WindowN: c.windowN, Count: c.count,
		PartialStart: c.partialStart,
		PartialEnd:   c.partialEnd,
		Partial:      geom.CloneWeighted(c.partial),
		Levels:       make([][]BucketSnapshot, len(c.levels)),
	}
	for j, lvl := range c.levels {
		s.Levels[j] = make([]BucketSnapshot, len(lvl))
		for i, b := range lvl {
			s.Levels[j][i] = BucketSnapshot{
				Points: geom.CloneWeighted(b.points),
				Start:  b.start, End: b.end,
			}
		}
	}
	return s
}

// Validate rejects snapshot parameters that could not have been produced
// by Snapshot; snapshots arrive from disk and are untrusted input.
func (s Snapshot) Validate() error {
	if s.K < 1 {
		return fmt.Errorf("window: invalid k %d in snapshot", s.K)
	}
	if s.M < 1 {
		return fmt.Errorf("window: invalid bucket size %d in snapshot", s.M)
	}
	if s.R < 2 {
		return fmt.Errorf("window: invalid branching %d in snapshot", s.R)
	}
	if s.WindowN < int64(s.M) {
		return fmt.Errorf("window: window length %d smaller than bucket size %d in snapshot", s.WindowN, s.M)
	}
	if s.Count < 0 {
		return fmt.Errorf("window: negative count %d in snapshot", s.Count)
	}
	if len(s.Partial) >= s.M {
		return fmt.Errorf("window: partial bucket of %d points with bucket size %d in snapshot", len(s.Partial), s.M)
	}
	if s.PartialEnd != 0 && (s.PartialEnd < s.PartialStart || s.PartialEnd > s.Count) {
		return fmt.Errorf("window: partial span [%d,%d] inconsistent with count %d in snapshot",
			s.PartialStart, s.PartialEnd, s.Count)
	}
	for j, lvl := range s.Levels {
		for i, b := range lvl {
			if b.Start < 1 || b.End < b.Start {
				return fmt.Errorf("window: bucket %d/%d has invalid span [%d,%d] in snapshot", j, i, b.Start, b.End)
			}
		}
	}
	return nil
}

// Restore replaces the clusterer's state with the snapshot's. The caller
// is expected to have constructed the clusterer via New with the
// snapshot's parameters (or to accept them being overwritten here).
func (c *Clusterer) Restore(s Snapshot) {
	c.k = s.K
	c.m = s.M
	c.r = s.R
	c.windowN = s.WindowN
	c.count = s.Count
	c.partialStart = s.PartialStart
	c.partialEnd = s.PartialEnd
	if c.partialEnd == 0 && len(s.Partial) > 0 {
		c.partialEnd = s.PartialStart + int64(len(s.Partial)) - 1
	}
	c.partial = append(make([]geom.Weighted, 0, s.M), geom.CloneWeighted(s.Partial)...)
	c.block = nil
	c.levels = make([][]bucket, len(s.Levels))
	for j, lvl := range s.Levels {
		c.levels[j] = make([]bucket, len(lvl))
		for i, b := range lvl {
			c.levels[j][i] = bucket{
				points: geom.CloneWeighted(b.Points),
				start:  b.Start, end: b.End,
			}
		}
	}
}
