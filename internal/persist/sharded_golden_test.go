package persist

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"streamkm/internal/core"
	"streamkm/internal/coreset"
	"streamkm/internal/decay"
	"streamkm/internal/geom"
	"streamkm/internal/kmeans"
	"streamkm/internal/window"
)

// Golden and corruption coverage for the format-v4 lane-sharded backend
// sub-envelopes (DecayedShards / WindowShards plus the sequencer
// cursors). The fixtures pin the on-disk format the sharded ingest
// pipelines write; the corruption table pins the validator against the
// failure classes a torn or hand-edited snapshot can exhibit.

func ccDriverFactory(k, m int) func(lane int, seed int64) *core.Driver {
	return func(_ int, seed int64) *core.Driver {
		rng := rand.New(rand.NewSource(seed))
		cc := core.NewCC(2, m, coreset.KMeansPP{}, rng)
		return core.NewDriver(cc, k, m, rng, kmeans.FastOptions())
	}
}

// goldenDecayedSharded feeds the golden stream through a 3-lane
// forward-decay pipeline, batched so the round-robin dispatch spreads
// lanes unevenly (the last batch is short).
func goldenDecayedSharded(t testing.TB) *decay.Sharded {
	sh, err := decay.NewSharded(3, 3, 0.001, 21, kmeans.FastOptions(), ccDriverFactory(3, 30))
	if err != nil {
		t.Fatal(err)
	}
	stream := goldenStream(700)
	for off := 0; off < len(stream); off += 64 {
		end := off + 64
		if end > len(stream) {
			end = len(stream)
		}
		sh.AddBatch(stream[off:end])
	}
	return sh
}

func goldenDecayedShardedEnvelope(t testing.TB) Envelope {
	return decayedShardedEnvelope(t, goldenDecayedSharded(t))
}

// decayedShardedEnvelope snapshots a forward-decay pipeline of CC lanes
// the way the decayed serving backend does.
func decayedShardedEnvelope(t testing.TB, sh *decay.Sharded) Envelope {
	var bs *BackendSnapshot
	err := sh.Quiesce(func(shards []*decay.Shard, clock, rr, count int64) error {
		sss, dim, err := SnapshotDecayedShards(shards)
		if err != nil {
			return err
		}
		bs = &BackendSnapshot{
			Type: BackendDecayed, Algo: "CC", K: 3, Dim: dim,
			Shards: len(shards), HalfLife: math.Ln2 / 0.001,
			Count: count, Clock: clock, RR: rr,
			DecayedShards: sss,
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return Envelope{Kind: KindBackend, Backend: bs}
}

// goldenWindowedSharded feeds the golden stream through a 3-lane
// sliding-window pipeline (window 400, so the histograms have expired
// buckets by the end).
func goldenWindowedSharded(t testing.TB) *window.Sharded {
	sh, err := window.NewSharded(3, 3, 30, 2, 400, coreset.KMeansPP{}, 17, kmeans.FastOptions())
	if err != nil {
		t.Fatal(err)
	}
	stream := goldenStream(900)
	for off := 0; off < len(stream); off += 64 {
		end := off + 64
		if end > len(stream) {
			end = len(stream)
		}
		sh.AddBatch(stream[off:end])
	}
	return sh
}

func goldenWindowedShardedEnvelope(t testing.TB) Envelope {
	sh := goldenWindowedSharded(t)
	var bs *BackendSnapshot
	err := sh.Quiesce(func(subs []*window.Clusterer, clock, rr, count int64) error {
		wss := make([]window.Snapshot, len(subs))
		dim := 0
		for i, wc := range subs {
			wss[i] = wc.Snapshot()
			if dim == 0 {
				dim = wc.Dim()
			}
		}
		bs = &BackendSnapshot{
			Type: BackendWindowed, K: 3, Dim: dim,
			Shards: len(subs), WindowN: 400,
			Count: count, Clock: clock, RR: rr,
			WindowShards: wss,
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return Envelope{Kind: KindBackend, Backend: bs}
}

// TestShardedBackendStampsV4 pins the header version economics: lane
// payloads (and only they, among these) require format v4, so older
// binaries fail loudly on the header instead of mis-decoding lanes.
func TestShardedBackendStampsV4(t *testing.T) {
	for _, tc := range []struct {
		name string
		env  Envelope
	}{
		{"decayed-sharded", goldenDecayedShardedEnvelope(t)},
		{"windowed-sharded", goldenWindowedShardedEnvelope(t)},
	} {
		var buf bytes.Buffer
		if err := Save(&buf, tc.env); err != nil {
			t.Fatal(err)
		}
		if v := buf.Bytes()[7]; v != 4 {
			t.Errorf("%s snapshot stamped version %d, want 4", tc.name, v)
		}
	}
}

func TestGoldenShardedSnapshots(t *testing.T) {
	v4DecayedPath := filepath.Join("testdata", "v4-decayed-sharded.snap")
	v4WindowedPath := filepath.Join("testdata", "v4-windowed-sharded.snap")

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		writeGolden(t, v4DecayedPath, goldenDecayedShardedEnvelope(t), 4)
		writeGolden(t, v4WindowedPath, goldenWindowedShardedEnvelope(t), 4)
	}

	t.Run("v4-decayed-sharded", func(t *testing.T) {
		env, err := LoadFile(v4DecayedPath)
		if err != nil {
			t.Fatalf("v4 decayed fixture no longer loads: %v", err)
		}
		bs := env.Backend
		if env.Kind != KindBackend || bs == nil || bs.Type != BackendDecayed {
			t.Fatalf("kind %q / backend %+v", env.Kind, bs)
		}
		if err := ValidateBackend(bs); err != nil {
			t.Fatalf("v4 decayed fixture no longer validates: %v", err)
		}
		if bs.Shards != 3 || len(bs.DecayedShards) != 3 || bs.Decayed != nil {
			t.Fatalf("lane layout: shards=%d lanes=%d legacy=%v", bs.Shards, len(bs.DecayedShards), bs.Decayed != nil)
		}
		lambda := math.Ln2 / bs.HalfLife
		lanes, err := RestoreDecayedShards(bs.DecayedShards, lambda, 21, coreset.KMeansPP{}, kmeans.FastOptions())
		if err != nil {
			t.Fatalf("v4 decayed fixture no longer restores: %v", err)
		}
		sh, err := decay.NewShardedFromShards(bs.K, lanes[0].Lambda(), 21, kmeans.FastOptions(),
			lanes, bs.Clock, bs.RR, bs.Count)
		if err != nil {
			t.Fatal(err)
		}
		if sh.Count() != 700 || bs.Count != 700 {
			t.Errorf("restored count %d / meta %d, want 700", sh.Count(), bs.Count)
		}
		stored := 0
		for _, ss := range bs.DecayedShards {
			stored += ccLanePoints(t, ss.Inner)
		}
		if sh.PointsStored() != stored {
			t.Errorf("restored memory %d, want the fixture's %d", sh.PointsStored(), stored)
		}
		if got := len(sh.Centers()); got != 3 {
			t.Errorf("%d centers, want 3", got)
		}
		// A restored pipeline keeps consuming the stream.
		sh.AddBatch([]geom.Weighted{{P: geom.Point{1, 2}, W: 1}})
	})

	t.Run("v4-windowed-sharded", func(t *testing.T) {
		env, err := LoadFile(v4WindowedPath)
		if err != nil {
			t.Fatalf("v4 windowed fixture no longer loads: %v", err)
		}
		bs := env.Backend
		if env.Kind != KindBackend || bs == nil || bs.Type != BackendWindowed {
			t.Fatalf("kind %q / backend %+v", env.Kind, bs)
		}
		if err := ValidateBackend(bs); err != nil {
			t.Fatalf("v4 windowed fixture no longer validates: %v", err)
		}
		if bs.Shards != 3 || len(bs.WindowShards) != 3 || bs.Window != nil {
			t.Fatalf("lane layout: shards=%d lanes=%d legacy=%v", bs.Shards, len(bs.WindowShards), bs.Window != nil)
		}
		subs, err := RestoreWindowShards(bs.WindowShards, 17, coreset.KMeansPP{}, kmeans.FastOptions())
		if err != nil {
			t.Fatalf("v4 windowed fixture no longer restores: %v", err)
		}
		sh, err := window.NewShardedFromLanes(bs.K, bs.WindowN, 17, kmeans.FastOptions(),
			subs, bs.Clock, bs.RR, bs.Count)
		if err != nil {
			t.Fatal(err)
		}
		if sh.Count() != 900 || bs.Count != 900 {
			t.Errorf("restored count %d / meta %d, want 900", sh.Count(), bs.Count)
		}
		want := goldenWindowedSharded(t)
		if sh.PointsStored() != want.PointsStored() {
			t.Errorf("restored memory %d, want %d", sh.PointsStored(), want.PointsStored())
		}
		if got := len(sh.Centers()); got != 3 {
			t.Errorf("%d centers, want 3", got)
		}
		sh.AddBatch([]geom.Weighted{{P: geom.Point{1, 2}, W: 1}})
	})

	// Boot-scan metadata peek covers the v4 generation too.
	t.Run("peek", func(t *testing.T) {
		f, err := os.Open(v4DecayedPath)
		if err != nil {
			t.Fatal(err)
		}
		meta, err := PeekBackend(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if meta.Type != BackendDecayed || meta.Shards != 3 || meta.Count != 700 {
			t.Errorf("PeekBackend = %+v, want decayed/3 lanes/700", meta)
		}
		f, err = os.Open(v4WindowedPath)
		if err != nil {
			t.Fatal(err)
		}
		meta, err = PeekBackend(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if meta.Type != BackendWindowed || meta.Shards != 3 || meta.WindowN != 400 || meta.Count != 900 {
			t.Errorf("PeekBackend = %+v, want windowed/3 lanes/400/900", meta)
		}
	})
}

// ccLanePoints counts the points a CC lane's envelope stores: tree
// buckets, cached coresets and the partial bucket.
func ccLanePoints(t *testing.T, env Envelope) int {
	t.Helper()
	if env.Kind != KindCC || env.Driver == nil || env.CC == nil {
		t.Fatalf("lane envelope of kind %q is not a driver-wrapped CC", env.Kind)
	}
	n := len(env.Driver.Partial)
	for _, level := range env.CC.Tree.Levels {
		for _, b := range level {
			n += len(b.Points)
		}
	}
	for _, b := range env.CC.Cache {
		n += len(b.Points)
	}
	return n
}

// TestDecayedShardedRoundTrip: the current pipeline's snapshot restores
// to the same memory, and the restored pipeline publishes the same next
// view bit for bit — a batch that completes no bucket reduces nothing,
// and every other lane's view is rebuilt from the restored caches.
func TestDecayedShardedRoundTrip(t *testing.T) {
	orig := goldenDecayedSharded(t)
	var buf bytes.Buffer
	if err := Save(&buf, decayedShardedEnvelope(t, orig)); err != nil {
		t.Fatal(err)
	}
	env, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	bs := env.Backend
	// The pipeline's own rate: ln 2 over the stored half-life can differ
	// from it in the last bit.
	lanes, err := RestoreDecayedShards(bs.DecayedShards, orig.Lambda(), 21, coreset.KMeansPP{}, kmeans.FastOptions())
	if err != nil {
		t.Fatal(err)
	}
	restored, err := decay.NewShardedFromShards(bs.K, orig.Lambda(), 21, kmeans.FastOptions(),
		lanes, bs.Clock, bs.RR, bs.Count)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.PointsStored(), orig.PointsStored(); got != want {
		t.Fatalf("restored memory %d, want %d", got, want)
	}
	next := goldenStream(5)
	orig.AddBatch(next)
	restored.AddBatch(next)
	got, gotCount := restored.Gather()
	want, wantCount := orig.Gather()
	if gotCount != wantCount || gotCount != 705 || len(got) != len(want) {
		t.Fatalf("restored view: %d points covering %d, want %d covering %d (705 arrivals)", len(got), gotCount, len(want), wantCount)
	}
	for i := range got {
		if math.Float64bits(got[i].W) != math.Float64bits(want[i].W) || !got[i].P.Equal(want[i].P) {
			t.Fatalf("restored view differs at point %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestValidateShardedBackendRejectsCorruption: every corruption class a
// lane-sharded snapshot can exhibit — wrong lane counts, cursor
// mismatches, double payloads, divergent lane parameters — must be
// rejected by ValidateBackend, never restored quietly.
func TestValidateShardedBackendRejectsCorruption(t *testing.T) {
	dec := func() *BackendSnapshot {
		env := goldenDecayedShardedEnvelope(t)
		return env.Backend
	}
	win := func() *BackendSnapshot {
		env := goldenWindowedShardedEnvelope(t)
		return env.Backend
	}
	if err := ValidateBackend(dec()); err != nil {
		t.Fatalf("golden decayed envelope invalid: %v", err)
	}
	if err := ValidateBackend(win()); err != nil {
		t.Fatalf("golden windowed envelope invalid: %v", err)
	}

	cases := []struct {
		name string
		bs   *BackendSnapshot
	}{
		{"decayed shard count disagrees with lanes", func() *BackendSnapshot {
			bs := dec()
			bs.Shards = 5
			return bs
		}()},
		{"decayed lane dropped", func() *BackendSnapshot {
			bs := dec()
			bs.DecayedShards = bs.DecayedShards[:2] // count no longer adds up
			return bs
		}()},
		{"decayed clock behind count", func() *BackendSnapshot {
			bs := dec()
			bs.Clock = bs.Count - 1
			return bs
		}()},
		{"decayed negative lane cursor", func() *BackendSnapshot {
			bs := dec()
			bs.RR = -1
			return bs
		}()},
		{"decayed both payload generations", func() *BackendSnapshot {
			bs := dec()
			bs.Decayed = &DecayedSnapshot{}
			return bs
		}()},
		{"decayed non-finite lane reference time", func() *BackendSnapshot {
			bs := dec()
			bs.DecayedShards[1].RefT = math.Inf(1)
			return bs
		}()},
		{"decayed lane count sum mismatch", func() *BackendSnapshot {
			bs := dec()
			bs.Count += 7
			bs.Clock = bs.Count
			return bs
		}()},
		{"decayed both half-life encodings", func() *BackendSnapshot {
			bs := dec()
			bs.HalfLifeSeconds = 60
			return bs
		}()},
		{"decayed elapsed seconds without wall clock", func() *BackendSnapshot {
			bs := dec()
			bs.ElapsedSeconds = 12.5
			return bs
		}()},
		{"windowed shard count disagrees with lanes", func() *BackendSnapshot {
			bs := win()
			bs.Shards = 2
			return bs
		}()},
		{"windowed clock behind count", func() *BackendSnapshot {
			bs := win()
			bs.Clock = bs.Count - 1
			return bs
		}()},
		{"windowed lane ahead of sequencer clock", func() *BackendSnapshot {
			bs := win()
			bs.WindowShards[0].Count = bs.Clock + 50
			return bs
		}()},
		{"windowed lane window disagrees", func() *BackendSnapshot {
			bs := win()
			bs.WindowShards[2].WindowN = 999
			return bs
		}()},
		{"windowed both payload generations", func() *BackendSnapshot {
			bs := win()
			s := goldenWindowed(t).Snapshot()
			bs.Window = &s
			return bs
		}()},
	}
	for _, tc := range cases {
		if err := ValidateBackend(tc.bs); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestV3LegacyRestoresIntoLaneZero is the upgrade path at the persist
// level: a pre-v4 single-lock decayed payload restores, converts into a
// lane (the public layer's lane-0 upgrade), reassembles as a one-lane
// pipeline with the stored count, and the next snapshot writes the
// sharded payload — the v3 file was the last of its generation.
func TestV3LegacyRestoresIntoLaneZero(t *testing.T) {
	env, err := LoadFile(filepath.Join("testdata", "v3-decayed.snap"))
	if err != nil {
		t.Fatal(err)
	}
	bs := env.Backend
	dc, err := RestoreDecayed(bs.Decayed, 1, coreset.KMeansPP{}, kmeans.FastOptions())
	if err != nil {
		t.Fatal(err)
	}
	lane0, err := dc.Shard(float64(bs.Count) + 1)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := decay.NewShardedFromShards(bs.K, lane0.Lambda(), 1, kmeans.FastOptions(),
		[]*decay.Shard{lane0}, bs.Count, 0, bs.Count)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Count() != bs.Count || sh.NumLanes() != 1 {
		t.Fatalf("upgraded pipeline: count %d lanes %d, want %d / 1", sh.Count(), sh.NumLanes(), bs.Count)
	}
	if got := len(sh.Centers()); got != bs.K {
		t.Fatalf("%d centers, want %d", got, bs.K)
	}
	// It keeps ingesting, and its own snapshot is the sharded shape.
	sh.AddBatch([]geom.Weighted{{P: geom.Point{5, 5}, W: 1}})
	err = sh.Quiesce(func(shards []*decay.Shard, clock, rr, count int64) error {
		sss, _, err := SnapshotDecayedShards(shards)
		if err != nil {
			return err
		}
		up := &BackendSnapshot{
			Type: BackendDecayed, Algo: bs.Algo, K: bs.K, Dim: bs.Dim,
			Shards: len(shards), HalfLife: bs.HalfLife,
			Count: count, Clock: clock, RR: rr, DecayedShards: sss,
		}
		if err := ValidateBackend(up); err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := Save(&buf, Envelope{Kind: KindBackend, Backend: up}); err != nil {
			return err
		}
		if v := buf.Bytes()[7]; v != 4 {
			t.Errorf("re-saved upgraded snapshot stamped version %d, want 4", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
