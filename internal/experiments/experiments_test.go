package experiments

import (
	"strconv"
	"strings"
	"testing"

	"streamkm/internal/kmeans"
	"streamkm/internal/metrics"
)

// tinyConfig keeps experiment smoke tests fast.
func tinyConfig() Config {
	return Config{
		Datasets:      []string{"power"}, // cheapest: d=7
		N:             3000,
		K:             5,
		Q:             100,
		Ks:            []int{3, 5},
		Qs:            []int64{100, 800},
		BucketFactors: []int{20, 40},
		Lambdas:       []float64{1.0 / 100, 1.0 / 800},
		Alphas:        []float64{1.2, 4.8},
		Seed:          7,
		Runs:          1,
		FastQueries:   true, // smoke tests check shapes, not timing fidelity
	}
}

func parseCell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "k"), 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func requireTable(t *testing.T, tb *metrics.Table, rows, cols int) {
	t.Helper()
	if len(tb.Rows) != rows {
		t.Fatalf("%s: %d rows, want %d", tb.Title, len(tb.Rows), rows)
	}
	for _, r := range tb.Rows {
		if len(r) != cols {
			t.Fatalf("%s: row has %d cells, want %d", tb.Title, len(r), cols)
		}
	}
}

func TestWithDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.N != 20000 || c.K != 30 || c.Q != 100 || c.Runs != 1 || c.Seed != 1 {
		t.Fatalf("defaults: %+v", c)
	}
	if len(c.Datasets) != 4 || len(c.Ks) != 5 || len(c.Qs) != 7 ||
		len(c.BucketFactors) != 5 || len(c.Lambdas) != 7 || len(c.Alphas) != 6 {
		t.Fatalf("sweep defaults: %+v", c)
	}
}

func TestPaperRCCDegrees(t *testing.T) {
	got := PaperRCCDegrees(65536)
	want := []int{2, 4, 16, 256} // 65536^(1/8), ^(1/4), ^(1/2)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PaperRCCDegrees(65536) = %v, want %v", got, want)
		}
	}
	small := PaperRCCDegrees(1)
	for _, d := range small {
		if d < 2 {
			t.Fatalf("degree < 2 in %v", small)
		}
	}
}

func TestNewClustererAllNames(t *testing.T) {
	for _, name := range AlgoNames {
		c, err := NewClusterer(name, 5, 100, 10, 1.2, 1, kmeans.FastOptions())
		if err != nil || c == nil {
			t.Fatalf("NewClusterer(%s): %v", name, err)
		}
	}
	if _, err := NewClusterer("Bogus", 5, 100, 10, 1.2, 1, kmeans.FastOptions()); err == nil {
		t.Fatal("expected error for unknown name")
	}
}

func TestFig4ShapeAndSanity(t *testing.T) {
	tables, err := Fig4(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("%d tables, want 1", len(tables))
	}
	tb := tables[0]
	requireTable(t, tb, 2, 7) // 2 k values; k + 5 algos + batch
	for _, row := range tb.Rows {
		for _, cell := range row[1:] {
			if v := parseCell(t, cell); v <= 0 {
				t.Fatalf("non-positive cost %q in %s", cell, tb.Title)
			}
		}
	}
	// Larger k must not increase batch cost (col 6) — basic monotonicity.
	if parseCell(t, tb.Rows[1][6]) > parseCell(t, tb.Rows[0][6])*1.5 {
		t.Fatalf("batch cost grew with k: %v", tb.Rows)
	}
}

func TestFig5Shape(t *testing.T) {
	tables, err := Fig5(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	requireTable(t, tables[0], 2, 5)
	// Wall-clock assertions are too noisy for CI-sized runs (shape fidelity
	// is checked against full-scale runs of `streambench -exp fig5`); here
	// just check the measurements are positive and finite.
	for _, row := range tables[0].Rows {
		for _, cell := range row[1:] {
			if v := parseCell(t, cell); v <= 0 {
				t.Fatalf("non-positive time %q", cell)
			}
		}
	}
}

func TestFig6Shape(t *testing.T) {
	tables, err := Fig6(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	requireTable(t, tables[0], 2, 5)
}

func TestFig7Shape(t *testing.T) {
	tables, err := Fig7(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	requireTable(t, tables[0], 2, 5)
}

func TestPoissonFiguresShape(t *testing.T) {
	for _, f := range []func(Config) ([]*metrics.Table, error){Fig8, Fig9, Fig10} {
		tables, err := f(tinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		requireTable(t, tables[0], 2, 5)
	}
}

func TestFig11Shape(t *testing.T) {
	tables, err := Fig11(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	requireTable(t, tables[0], 2, 4)
	// Fallback count must not increase when alpha is loosened.
	strict := parseCell(t, tables[0].Rows[0][3])
	loose := parseCell(t, tables[0].Rows[1][3])
	if loose > strict {
		t.Fatalf("fallbacks grew with looser alpha: %v -> %v", strict, loose)
	}
}

func TestTable3Shape(t *testing.T) {
	tables, err := Table3(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	requireTable(t, tables[0], 1, 5)
}

func TestTable4ShapeAndOrdering(t *testing.T) {
	tables, err := Table4(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("%d tables, want 2 (points + MB)", len(tables))
	}
	pts := tables[0]
	requireTable(t, pts, 1, 5)
	// Memory ordering from the paper: StreamKM++ <= CC <= RCC; OnlineCC
	// within a hair of CC.
	skm := parseCell(t, pts.Rows[0][1])
	cc := parseCell(t, pts.Rows[0][2])
	rcc := parseCell(t, pts.Rows[0][3])
	occ := parseCell(t, pts.Rows[0][4])
	if !(skm <= cc && cc <= rcc) {
		t.Fatalf("memory ordering violated: skm=%v cc=%v rcc=%v", skm, cc, rcc)
	}
	// OnlineCC holds at least the same tree as StreamKM++ plus its live
	// centers, and at most CC's footprint plus the live centers (its inner
	// cache only fills on fallbacks, so it can sit anywhere in between).
	if occ < skm || occ > cc*1.5+10 {
		t.Fatalf("OnlineCC memory %v outside [%v, %v]", occ, skm, cc*1.5+10)
	}
}

func TestAblationShape(t *testing.T) {
	tables, err := Ablation(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 4 {
		t.Fatalf("%d ablation tables, want 4", len(tables))
	}
	requireTable(t, tables[0], 3, 3) // three builders
	requireTable(t, tables[1], 4, 5) // four merge degrees
	requireTable(t, tables[2], 2, 4) // cache on/off
	requireTable(t, tables[3], 4, 5) // four RCC orders
	// Builder ablation: uniform sampling must not beat the informed
	// builders by much (usually it is worse).
	informed := parseCell(t, tables[0].Rows[0][1])
	uniform := parseCell(t, tables[0].Rows[2][1])
	if uniform < informed/2 {
		t.Fatalf("uniform sampling cost %v suspiciously better than kmeans++ %v", uniform, informed)
	}
}

func TestUnknownDatasetPropagates(t *testing.T) {
	cfg := tinyConfig()
	cfg.Datasets = []string{"nope"}
	if _, err := Fig4(cfg); err == nil {
		t.Fatal("expected dataset error")
	}
}

func TestMedianHelper(t *testing.T) {
	if median(nil) != 0 {
		t.Fatal("median(nil)")
	}
	if median([]float64{3, 1, 2}) != 2 {
		t.Fatal("median odd")
	}
	if median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Fatal("median even")
	}
}

func TestMedianOverRuns(t *testing.T) {
	cfg := tinyConfig()
	cfg.Runs = 3
	calls := 0
	got, err := cfg.medianOverRuns(func(seed int64) (map[string]float64, error) {
		calls++
		return map[string]float64{"x": float64(calls)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 || got["x"] != 2 {
		t.Fatalf("medianOverRuns: calls=%d got=%v", calls, got)
	}
}
