package kmeans

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"streamkm/internal/geom"
)

// checkSeeding asserts that the pruned pass equals the exhaustive one and
// that its assignment is the lowest-index nearest center.
func checkSeeding(t *testing.T, name string, pts []geom.Weighted, k int, seed int64) Seeding {
	t.Helper()
	got := seedPP(rand.New(rand.NewSource(seed)), pts, k, true)
	want := seedPP(rand.New(rand.NewSource(seed)), pts, k, false)
	if want.Pruned != 0 {
		t.Fatalf("%s: unpruned pass reports %d skips", name, want.Pruned)
	}
	want.Pruned = got.Pruned
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: pruned seeding differs from the exhaustive pass", name)
	}
	fc := geom.FlattenCenters(got.Centers)
	for i, wp := range pts {
		d, idx := fc.Nearest(wp.P)
		if got.Assign[i] != idx || math.Float64bits(got.MinSq[i]) != math.Float64bits(d) {
			t.Fatalf("%s: point %d assigned (%d, %v), Nearest says (%d, %v)",
				name, i, got.Assign[i], got.MinSq[i], idx, d)
		}
	}
	return got
}

func TestSeedPPAssignMatchesNearest(t *testing.T) {
	var pruned, evals int
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, k := 20+rng.Intn(300), 1+rng.Intn(30)
		pts := mixture(rng, testCenters, n, 2+rng.Float64()*10)
		for i := range pts {
			pts[i].W = 0.1 + rng.ExpFloat64()
		}
		s := checkSeeding(t, "mixture", pts, k, seed)
		pruned += s.Pruned
		if len(s.Centers) > 1 {
			evals += n * (len(s.Centers) - 1)
		}

		grid := make([]geom.Weighted, n)
		for i := range grid {
			grid[i] = geom.Weighted{P: geom.Point{float64(rng.Intn(3)), float64(rng.Intn(3))}, W: 1}
		}
		checkSeeding(t, "int-grid", grid, k, seed)
	}
	// Four well-separated clusters: most later centers are far from most
	// points, so the bound must be skipping a real share of the work.
	if pruned*4 < evals {
		t.Fatalf("pruning skipped %d of %d distance evaluations", pruned, evals)
	}
}

// TestSeedPPAssignNeverPrunesSubnormal: squared distances made of
// subnormal terms round absolutely, not relatively, so the bound is not
// sound there and every distance must be evaluated. The only skips left
// are the chosen centers themselves, whose D² is exactly zero.
func TestSeedPPAssignNeverPrunesSubnormal(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pts := make([]geom.Weighted, 100)
		for i := range pts {
			// Distinct coordinates near 1e-155: every squared distance is
			// far below the pruning floor, most are subnormal, none is zero.
			pts[i] = geom.Weighted{P: geom.Point{1e-155 * float64(i+1), 1e-155 * float64(rng.Intn(50))}, W: 1}
		}
		s := checkSeeding(t, "subnormal", pts, 10, seed)
		if k := len(s.Centers); s.Pruned != k*(k-1)/2 {
			t.Fatalf("seed %d: %d skips, want %d (centers only)", seed, s.Pruned, k*(k-1)/2)
		}
	}
}

// TestSeedPPAssignNearOverflow: at coordinates near 1e153 many squared
// distances overflow to +Inf. Pruning must still leave the seeding
// identical to the exhaustive pass.
func TestSeedPPAssignNearOverflow(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pts := mixture(rng, testCenters, 200, 5)
		for i := range pts {
			pts[i].P.Scale(2e152)
		}
		got := seedPP(rand.New(rand.NewSource(seed)), pts, 12, true)
		want := seedPP(rand.New(rand.NewSource(seed)), pts, 12, false)
		want.Pruned = got.Pruned
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: pruned seeding differs from the exhaustive pass", seed)
		}
		if got.Pruned == 0 {
			t.Fatalf("seed %d: nothing pruned", seed)
		}
	}
}

func TestSeedPPAssignSmallInput(t *testing.T) {
	pts := []geom.Weighted{
		{P: geom.Point{1, 1}, W: 1},
		{P: geom.Point{5, 5}, W: 1},
		{P: geom.Point{1, 1}, W: 2}, // duplicate: ties go to index 0
	}
	s := SeedPPAssign(rand.New(rand.NewSource(1)), pts, 5)
	if len(s.Centers) != 3 || !reflect.DeepEqual(s.Assign, []int{0, 1, 0}) ||
		!reflect.DeepEqual(s.MinSq, []float64{0, 0, 0}) {
		t.Fatalf("small input seeding = %+v", s)
	}
	if got := SeedPPAssign(rand.New(rand.NewSource(1)), nil, 3); got.Centers != nil || got.Assign != nil {
		t.Fatalf("empty input seeding = %+v", got)
	}
}

// TestRunCostMatchesCost: Run's cost comes from the seeding's D² instead
// of a rescan, and must equal Cost bit for bit.
func TestRunCostMatchesCost(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := mixture(rng, testCenters, 500, 4)
	centers, cost := Run(rand.New(rand.NewSource(4)), pts, 6, FastOptions())
	if want := Cost(pts, centers); math.Float64bits(cost) != math.Float64bits(want) {
		t.Fatalf("Run cost %v, Cost %v", cost, want)
	}
}
