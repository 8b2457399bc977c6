// Command streambench regenerates the tables and figures of the paper's
// evaluation section (Zhang, Tangwongsan, Tirthapura, "Streaming k-Means
// Clustering with Fast Queries", ICDE 2017).
//
// Usage:
//
//	streambench -exp fig4                # one experiment
//	streambench -exp all                 # the full evaluation
//	streambench -exp fig5 -n 100000 -runs 9
//	streambench -exp table4 -datasets covtype,power
//	streambench -exp fig4 -paperscale    # full Table-3 cardinalities
//
// Experiments: table3, fig4, fig5, fig6, fig7, fig8, fig9, fig10, fig11,
// table4, ablation. Every experiment prints text tables whose rows are the
// series plotted in the corresponding paper figure; `streambench -exp all`
// regenerates every table for comparison against the paper's shapes.
//
// # HTTP load-replay client mode
//
// With -replay, streambench becomes a load generator against a running
// streamkmd daemon instead: it replays a generated dataset over POST
// /ingest from -conc concurrent producers (batches of -batch points)
// while querying GET /centers every -q points, then prints client-side
// throughput/latency and the daemon's /stats:
//
//	streamkmd -algo CC -k 30 -shards 8 &
//	streambench -replay http://localhost:7070 -datasets covtype -n 100000 -conc 8 -batch 500
//
// -wire selects the ingest wire format: ndjson (default) or binary, the
// length-prefixed columnar application/x-streamkm-batch format — replay
// both against one daemon to measure the codec's share of ingest cost.
//
// With -tenants N the dataset is split across N independent streams
// (/streams/replay-NNN/ingest), driving the daemon's multi-tenant
// registry — point it at a daemon started with -max-streams below N to
// exercise hibernation/restore churn under load. With -json FILE the
// run's throughput/latency results are also written as machine-readable
// JSON (the BENCH_*.json trajectory format):
//
//	streamkmd -data-dir /tmp/skm -max-streams 8 &
//	streambench -replay http://localhost:7070 -n 100000 -tenants 32 -json bench.json
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"streamkm/internal/datagen"
	"streamkm/internal/experiments"
	"streamkm/internal/metrics"
)

var experimentFuncs = map[string]func(experiments.Config) ([]*metrics.Table, error){
	"table3":   experiments.Table3,
	"fig4":     experiments.Fig4,
	"fig5":     experiments.Fig5,
	"fig6":     experiments.Fig6,
	"fig7":     experiments.Fig7,
	"fig8":     experiments.Fig8,
	"fig9":     experiments.Fig9,
	"fig10":    experiments.Fig10,
	"fig11":    experiments.Fig11,
	"table4":   experiments.Table4,
	"ablation": experiments.Ablation,
}

// order for -exp all.
var experimentOrder = []string{
	"table3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
	"fig11", "table4", "ablation",
}

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment to run (table3, fig4..fig11, table4, ablation, all)")
		n           = flag.Int("n", 20000, "points per dataset")
		paperScale  = flag.Bool("paperscale", false, "use the full Table-3 cardinalities (slow)")
		k           = flag.Int("k", 30, "number of clusters")
		q           = flag.Int64("q", 100, "fixed query interval in points")
		runs        = flag.Int("runs", 1, "repetitions per configuration (median reported; paper uses 9)")
		seed        = flag.Int64("seed", 1, "random seed")
		datasets    = flag.String("datasets", "", "comma-separated subset of: covtype,power,intrusion,drift")
		fastQueries = flag.Bool("fastqueries", false, "downgrade query-time k-means++ to one seeding pass (fast smoke runs; distorts timing shapes)")
		replay      = flag.String("replay", "", "replay a dataset over HTTP against a streamkmd daemon at this base URL instead of running experiments")
		routers     = flag.String("routers", "", "replay through streamkm-router instead: comma-separated router base URLs; requests round-robin across them and handoff refusals (503) are retried")
		conc        = flag.Int("conc", 4, "concurrent producers in -replay mode")
		batch       = flag.Int("batch", 500, "points per ingest request in -replay mode")
		tenants     = flag.Int("tenants", 1, "drive this many independent streams (/streams/replay-NNN) in -replay mode")
		backend     = flag.String("backend", "", "create replay streams with this backend (concurrent, decayed, windowed) in -replay mode; empty = daemon default")
		halfLife    = flag.Float64("half-life", 5000, "decay half-life in points for -backend decayed")
		halfLifeS   = flag.Float64("half-life-seconds", 0, "wall-clock decay half-life for -backend decayed; overrides -half-life when set")
		windowN     = flag.Int64("window", 50000, "sliding-window length in points for -backend windowed")
		jsonOut     = flag.String("json", "", "write the -replay result as machine-readable JSON to this file")
		wireFmt     = flag.String("wire", "ndjson", "ingest wire format in -replay mode: ndjson or binary (application/x-streamkm-batch)")
	)
	flag.Parse()

	if *replay != "" || *routers != "" {
		if *conc < 1 || *batch < 1 || *tenants < 1 {
			fmt.Fprintf(os.Stderr, "streambench: -conc, -batch and -tenants must be >= 1 (got %d, %d, %d)\n", *conc, *batch, *tenants)
			os.Exit(2)
		}
		if *wireFmt != "ndjson" && *wireFmt != "binary" {
			fmt.Fprintf(os.Stderr, "streambench: -wire must be ndjson or binary, got %q\n", *wireFmt)
			os.Exit(2)
		}
		var routerURLs []string
		for _, r := range strings.Split(*routers, ",") {
			if r = strings.TrimSpace(r); r != "" {
				routerURLs = append(routerURLs, strings.TrimRight(r, "/"))
			}
		}
		ds := "covtype"
		if *datasets != "" {
			ds = strings.Split(*datasets, ",")[0]
		}
		err := runReplay(replayConfig{
			url:          strings.TrimRight(*replay, "/"),
			routers:      routerURLs,
			dataset:      ds,
			n:            *n,
			conc:         *conc,
			batch:        *batch,
			tenants:      *tenants,
			backend:      *backend,
			halfLife:     *halfLife,
			halfLifeSecs: *halfLifeS,
			windowN:      *windowN,
			queryEvery:   *q,
			seed:         *seed,
			jsonOut:      *jsonOut,
			wire:         *wireFmt,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "streambench: replay: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := experiments.Config{
		N:           *n,
		K:           *k,
		Q:           *q,
		Runs:        *runs,
		Seed:        *seed,
		FastQueries: *fastQueries,
	}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}

	names := []string{*exp}
	if *exp == "all" {
		names = experimentOrder
	}
	for _, name := range names {
		f, ok := experimentFuncs[name]
		if !ok {
			valid := make([]string, 0, len(experimentFuncs))
			for e := range experimentFuncs {
				valid = append(valid, e)
			}
			sort.Strings(valid)
			fmt.Fprintf(os.Stderr, "streambench: unknown experiment %q (valid: %s, all)\n",
				name, strings.Join(valid, ", "))
			os.Exit(2)
		}
		runCfg := cfg
		if *paperScale {
			// Per-dataset paper cardinality requires one run per dataset.
			runPaperScale(name, f, runCfg)
			continue
		}
		start := time.Now()
		tables, err := f(runCfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "streambench: %s: %v\n", name, err)
			os.Exit(1)
		}
		printTables(tables)
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}

// runPaperScale runs the experiment dataset-by-dataset at each dataset's
// full Table-3 cardinality.
func runPaperScale(name string, f func(experiments.Config) ([]*metrics.Table, error), cfg experiments.Config) {
	dss := cfg.Datasets
	if len(dss) == 0 {
		dss = datagen.Names()
	}
	for _, ds := range dss {
		runCfg := cfg
		runCfg.Datasets = []string{ds}
		runCfg.N = datagen.PaperSizes[ds]
		start := time.Now()
		tables, err := f(runCfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "streambench: %s/%s: %v\n", name, ds, err)
			os.Exit(1)
		}
		printTables(tables)
		fmt.Printf("[%s/%s completed in %v]\n\n", name, ds, time.Since(start).Round(time.Millisecond))
	}
}

func printTables(tables []*metrics.Table) {
	for _, tb := range tables {
		fmt.Println(tb.String())
	}
}
