package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeBackend is a minimal snapshot-capable Backend: it just counts
// points. It makes registry tests exercise the lifecycle machinery at
// full speed, with no clustering math in the way.
type fakeBackend struct {
	algo  string
	k     int
	dim   int
	count atomic.Int64
}

func (f *fakeBackend) AddBatch(pts [][]float64) {
	if len(pts) > 0 && f.dim == 0 {
		f.dim = len(pts[0])
	}
	f.count.Add(int64(len(pts)))
}

func (f *fakeBackend) Centers() [][]float64 {
	out := make([][]float64, f.k)
	for i := range out {
		out[i] = []float64{float64(i)}
	}
	return out
}

func (f *fakeBackend) Count() int64      { return f.count.Load() }
func (f *fakeBackend) PointsStored() int { return int(f.count.Load()) }
func (f *fakeBackend) Name() string      { return f.algo }

type fakeState struct {
	Algo  string `json:"algo"`
	K     int    `json:"k"`
	Dim   int    `json:"dim"`
	Count int64  `json:"count"`
}

func (f *fakeBackend) Snapshot(w io.Writer) error {
	return json.NewEncoder(w).Encode(fakeState{Algo: f.algo, K: f.k, Dim: f.dim, Count: f.count.Load()})
}

// fakeHooks builds a registry Config wired to fakeBackend, with Peek.
func fakeHooks(cfg Config) Config {
	cfg.New = func(id string, sc StreamConfig) (Backend, error) {
		if sc.Algo == "Bogus" {
			return nil, errors.New("unknown algorithm")
		}
		return &fakeBackend{algo: sc.Algo, k: sc.K, dim: sc.Dim}, nil
	}
	cfg.Restore = func(id string, want StreamConfig, r io.Reader) (Backend, StreamConfig, error) {
		var st fakeState
		if err := json.NewDecoder(r).Decode(&st); err != nil {
			return nil, StreamConfig{}, err
		}
		if want.Algo != "" && want.Algo != st.Algo {
			return nil, StreamConfig{}, fmt.Errorf("snapshot algo %s does not match requested %s", st.Algo, want.Algo)
		}
		b := &fakeBackend{algo: st.Algo, k: st.K, dim: st.Dim}
		b.count.Store(st.Count)
		return b, StreamConfig{Algo: st.Algo, K: st.K, Dim: st.Dim}, nil
	}
	cfg.Peek = func(r io.Reader) (StreamConfig, int64, error) {
		var st fakeState
		if err := json.NewDecoder(r).Decode(&st); err != nil {
			return StreamConfig{}, 0, err
		}
		return StreamConfig{Algo: st.Algo, K: st.K, Dim: st.Dim}, st.Count, nil
	}
	if cfg.Default == (StreamConfig{}) {
		cfg.Default = StreamConfig{Algo: "CC", K: 3}
	}
	return cfg
}

func mustNew(t *testing.T, cfg Config) *Registry {
	t.Helper()
	r, err := New(fakeHooks(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func ingest(t *testing.T, r *Registry, id string, n int) {
	t.Helper()
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{float64(i), 0}
	}
	if err := r.With(id, true, func(_ *Stream, b Backend) error {
		b.AddBatch(pts)
		return nil
	}); err != nil {
		t.Fatalf("ingest %s: %v", id, err)
	}
}

func streamCount(t *testing.T, r *Registry, id string) int64 {
	t.Helper()
	var n int64
	if err := r.With(id, false, func(_ *Stream, b Backend) error {
		n = b.Count()
		return nil
	}); err != nil {
		t.Fatalf("count %s: %v", id, err)
	}
	return n
}

func TestValidateID(t *testing.T) {
	for _, ok := range []string{"a", "default", "tenant-07", "A.b_c-9", "x"} {
		if err := ValidateID(ok); err != nil {
			t.Errorf("ValidateID(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"", ".", "..", ".hidden", "-dash", "a/b", "a\\b", "a b",
		"..%2f", "über", "x123456789012345678901234567890123456789012345678901234567890123456789"} {
		if err := ValidateID(bad); err == nil {
			t.Errorf("ValidateID(%q) = nil, want error", bad)
		}
	}
}

func TestLazyCreateAndLookup(t *testing.T) {
	r := mustNew(t, Config{})
	if err := r.With("nope", false, func(*Stream, Backend) error { return nil }); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown stream: err = %v, want ErrNotFound", err)
	}
	ingest(t, r, "a", 5)
	ingest(t, r, "a", 7)
	if got := streamCount(t, r, "a"); got != 12 {
		t.Fatalf("count %d, want 12", got)
	}
	if err := r.With("bad/id", true, func(*Stream, Backend) error { return nil }); err == nil {
		t.Fatal("invalid id accepted")
	}
	st := r.Stats()
	if st.Streams != 1 || st.Resident != 1 || st.Hibernated != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestExplicitCreateDeleteAndErrors(t *testing.T) {
	dir := t.TempDir()
	r := mustNew(t, Config{DataDir: dir})
	if err := r.Create("t1", StreamConfig{Algo: "RCC", K: 7}); err != nil {
		t.Fatal(err)
	}
	if err := r.Create("t1", StreamConfig{Algo: "CC", K: 2}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create err = %v, want ErrExists", err)
	}
	if err := r.Create("t2", StreamConfig{Algo: "Bogus", K: 2}); err == nil {
		t.Fatal("bad config accepted")
	}
	if _, err := r.Stat("t2"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("failed create left a registered stream: %v", err)
	}
	in, err := r.Stat("t1")
	if err != nil || in.Algo != "RCC" || in.K != 7 || !in.Resident {
		t.Fatalf("stat %+v err %v", in, err)
	}

	ingest(t, r, "t1", 3)
	if _, err := r.Checkpoint("t1"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "t1.snap")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}
	if err := r.Delete("t1"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("snapshot survived delete: %v", err)
	}
	if err := r.Delete("t1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete err = %v, want ErrNotFound", err)
	}
}

func TestEvictionLRUAndLazyRestore(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1000, 0)
	r := mustNew(t, Config{DataDir: dir, MaxResident: 2, now: func() time.Time { return now }})

	ingest(t, r, "a", 10)
	now = now.Add(time.Second)
	ingest(t, r, "b", 20)
	now = now.Add(time.Second)
	ingest(t, r, "c", 30) // over cap: "a" is LRU and must hibernate

	st := r.Stats()
	if st.Resident != 2 || st.Hibernated != 1 || st.Registry.Evictions != 1 {
		t.Fatalf("after third stream: %+v", st)
	}
	ia, _ := r.Stat("a")
	if ia.Resident {
		t.Fatal("LRU stream a still resident")
	}
	if ia.Count != 10 {
		t.Fatalf("hibernated a count %d, want 10", ia.Count)
	}
	if _, err := os.Stat(filepath.Join(dir, "a.snap")); err != nil {
		t.Fatalf("hibernation wrote no snapshot: %v", err)
	}

	// Lazy restore on next access, count intact; "b" (now LRU) goes cold.
	now = now.Add(time.Second)
	if got := streamCount(t, r, "a"); got != 10 {
		t.Fatalf("restored count %d, want 10", got)
	}
	st = r.Stats()
	if st.Registry.Restores != 1 {
		t.Fatalf("restores %d, want 1", st.Registry.Restores)
	}
	if ib, _ := r.Stat("b"); ib.Resident {
		t.Fatal("b should have been evicted on a's restore")
	}
	// Ingest into the restored stream keeps accumulating.
	ingest(t, r, "a", 5)
	if got := streamCount(t, r, "a"); got != 15 {
		t.Fatalf("count after restore+ingest %d, want 15", got)
	}
}

// TestEvictionNeverTakesTheAccessedStream: with a clock that never moves,
// every access carries the same reading, so recency has to come from the
// order of accesses. The stream whose access pushed the registry over its
// cap is the most recently used one and must stay resident.
func TestEvictionNeverTakesTheAccessedStream(t *testing.T) {
	now := time.Unix(1000, 0)
	r := mustNew(t, Config{DataDir: t.TempDir(), MaxResident: 1, now: func() time.Time { return now }})
	ids := []string{"a", "b", "c"}
	for i := 0; i < 30; i++ {
		id := ids[i%len(ids)]
		ingest(t, r, id, 1)
		for _, other := range ids {
			in, err := r.Stat(other)
			if err != nil {
				if other != id && i < len(ids) {
					continue // not created yet
				}
				t.Fatal(err)
			}
			if in.Resident != (other == id) {
				t.Fatalf("access %d to %q: stream %q resident=%v", i, id, other, in.Resident)
			}
		}
	}
	if n := streamCount(t, r, "a"); n != 10 {
		t.Fatalf("count of a = %d, want 10", n)
	}
}

func TestEvictionRequiresDataDir(t *testing.T) {
	if _, err := New(fakeHooks(Config{MaxResident: 2})); err == nil {
		t.Fatal("MaxResident without DataDir accepted")
	}
	if _, err := New(fakeHooks(Config{TTL: time.Second})); err == nil {
		t.Fatal("TTL without DataDir accepted")
	}
}

func TestTTLSweep(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1000, 0)
	r := mustNew(t, Config{DataDir: dir, TTL: 10 * time.Second, now: func() time.Time { return now }})
	ingest(t, r, "hot", 1)
	ingest(t, r, "cold", 2)
	if n := r.Sweep(); n != 0 {
		t.Fatalf("premature sweep hibernated %d", n)
	}
	now = now.Add(11 * time.Second)
	ingest(t, r, "hot", 1) // refresh hot's last access
	if n := r.Sweep(); n != 1 {
		t.Fatalf("sweep hibernated %d, want 1", n)
	}
	if ih, _ := r.Stat("hot"); !ih.Resident {
		t.Fatal("recently-touched stream swept")
	}
	if ic, _ := r.Stat("cold"); ic.Resident {
		t.Fatal("idle stream not swept")
	}
	if got := streamCount(t, r, "cold"); got != 2 {
		t.Fatalf("swept stream count %d, want 2", got)
	}
	// Sweep latency accounting: both sweeps (the premature no-op and the
	// real one) are recorded, with the hibernation tally matching.
	st := r.Stats().Registry
	if st.Sweeps != 2 {
		t.Fatalf("recorded %d sweeps, want 2", st.Sweeps)
	}
	if st.SweepHibernated != 1 {
		t.Fatalf("recorded %d sweep hibernations, want 1", st.SweepHibernated)
	}
	if st.SweepLastMs < 0 || st.SweepTotalMs < st.SweepLastMs {
		t.Fatalf("inconsistent sweep latency: last %v total %v", st.SweepLastMs, st.SweepTotalMs)
	}
}

func TestStreamConfigValidate(t *testing.T) {
	good := []StreamConfig{
		{K: 1},
		{K: 10, Dim: 128, Backend: "windowed", WindowN: 1000},
		{K: MaxK, Dim: MaxDim},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
	bad := []StreamConfig{
		{K: 0},
		{K: -1},
		{K: MaxK + 1},
		{K: 1, Dim: -1},
		{K: 1, Dim: MaxDim + 1},
		{K: 1, HalfLife: -0.5},
		{K: 1, WindowN: -10},
	}
	for _, c := range bad {
		err := c.Validate()
		if err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
			continue
		}
		if !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("Validate(%+v) error %v not ErrInvalidConfig", c, err)
		}
	}
}

// TestCreateRejectsInvalidConfig: absurd configurations fail before the
// backend factory ever runs, as ErrInvalidConfig.
func TestCreateRejectsInvalidConfig(t *testing.T) {
	r := mustNew(t, Config{})
	if err := r.Create("t1", StreamConfig{K: -5}); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("Create(k=-5) = %v, want ErrInvalidConfig", err)
	}
	if err := r.Create("t2", StreamConfig{Dim: MaxDim + 1}); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("Create(dim=2^20+1) = %v, want ErrInvalidConfig", err)
	}
	if len(r.List()) != 0 {
		t.Fatalf("rejected creates left streams registered: %+v", r.List())
	}
}

// TestRestoreMismatchSurfaces: an explicitly created stream whose
// snapshot file holds a different configuration fails on access instead
// of silently adopting the file.
func TestRestoreMismatchSurfaces(t *testing.T) {
	dir := t.TempDir()
	r1 := mustNew(t, Config{DataDir: dir})
	ingest(t, r1, "s", 5) // default algo CC
	if err := r1.CheckpointAll(); err != nil {
		t.Fatal(err)
	}

	// New registry over an empty dir; the old CC snapshot "appears" after
	// boot, then the stream is explicitly created as RCC.
	dir2 := t.TempDir()
	r2 := mustNew(t, Config{DataDir: dir2})
	raw, err := os.ReadFile(filepath.Join(dir, "s.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir2, "s.snap"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r2.Create("s", StreamConfig{Algo: "RCC", K: 3}); err == nil {
		t.Fatal("Create adopted a snapshot with a mismatched config")
	}
}

func TestBootScanRestoresDirectory(t *testing.T) {
	dir := t.TempDir()
	r1 := mustNew(t, Config{DataDir: dir})
	ingest(t, r1, "x", 11)
	ingest(t, r1, "y", 22)
	if err := r1.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	// Junk that must not become a stream.
	os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644)
	os.WriteFile(filepath.Join(dir, ".hidden.snap"), []byte("{}"), 0o644)

	r2 := mustNew(t, Config{DataDir: dir})
	infos := r2.List()
	if len(infos) != 2 {
		t.Fatalf("boot scan found %d streams, want 2: %+v", len(infos), infos)
	}
	for _, in := range infos {
		if in.Resident {
			t.Fatalf("boot scan made %s resident (should stay cold)", in.ID)
		}
	}
	if infos[0].ID != "x" || infos[0].Count != 11 || infos[1].ID != "y" || infos[1].Count != 22 {
		t.Fatalf("boot metadata %+v", infos)
	}
	// First access lazily restores with state intact.
	if got := streamCount(t, r2, "y"); got != 22 {
		t.Fatalf("restored y count %d, want 22", got)
	}
}

func TestBootScanToleratesCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	r1 := mustNew(t, Config{DataDir: dir})
	ingest(t, r1, "good", 7)
	if err := r1.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	// A damaged tenant file must not brick the whole daemon at boot; the
	// damage surfaces on that stream's first access instead.
	os.WriteFile(filepath.Join(dir, "bad.snap"), []byte("not json"), 0o644)

	r2 := mustNew(t, Config{DataDir: dir})
	if n := len(r2.List()); n != 2 {
		t.Fatalf("boot scan found %d streams, want 2", n)
	}
	if got := streamCount(t, r2, "good"); got != 7 {
		t.Fatalf("healthy stream count %d, want 7", got)
	}
	err := r2.With("bad", false, func(_ *Stream, _ Backend) error { return nil })
	if err == nil {
		t.Fatal("accessing the corrupt stream should fail to restore")
	}
}

func TestCheckpointAllSkipsPathlessStreams(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "default.snap")
	r := mustNew(t, Config{Files: map[string]string{"default": file}})
	ingest(t, r, "default", 3)
	ingest(t, r, "ephemeral", 5) // no Files entry, no DataDir: memory-only
	if err := r.CheckpointAll(); err != nil {
		t.Fatalf("CheckpointAll must skip memory-only streams, got %v", err)
	}
	if _, err := os.Stat(file); err != nil {
		t.Fatalf("default stream was not checkpointed: %v", err)
	}
	// Explicit checkpoint of a path-less stream is still an error.
	if _, err := r.Checkpoint("ephemeral"); err == nil {
		t.Fatal("explicit Checkpoint of a path-less stream should fail")
	}
}

func TestCreateDoesNotClobberRacedLazyBackend(t *testing.T) {
	dir := t.TempDir()
	r := mustNew(t, Config{DataDir: dir})
	// Simulate the PUT-vs-first-ingest race: the lazy ingest wins after
	// Create has registered the entry but before it materializes. Create
	// must keep the backend holding acknowledged points.
	ingest(t, r, "s", 6)
	r.mu.Lock()
	e := r.streams["s"]
	r.mu.Unlock()
	e.mu.Lock()
	if _, err := r.materialize(e, nil); err != nil { // the call Create makes
		e.mu.Unlock()
		t.Fatal(err)
	}
	e.mu.Unlock()
	if got := streamCount(t, r, "s"); got != 6 {
		t.Fatalf("re-materialize clobbered backend: count %d, want 6", got)
	}
}

func TestFilesOverrideMapsLegacyCheckpoint(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "state.snap")
	r1 := mustNew(t, Config{Files: map[string]string{"default": file}})
	ingest(t, r1, "default", 9)
	if _, err := r1.Checkpoint("default"); err != nil {
		t.Fatal(err)
	}
	r2 := mustNew(t, Config{Files: map[string]string{"default": file}})
	in, err := r2.Stat("default")
	if err != nil || in.Count != 9 || in.Resident {
		t.Fatalf("legacy file boot: %+v err %v", in, err)
	}
	if got := streamCount(t, r2, "default"); got != 9 {
		t.Fatalf("restored count %d, want 9", got)
	}
}

func TestCheckpointAllSkipsClean(t *testing.T) {
	dir := t.TempDir()
	r := mustNew(t, Config{DataDir: dir})
	ingest(t, r, "a", 4)
	if err := r.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	w1 := r.Stats().Checkpoint.Written
	if err := r.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	if w2 := r.Stats().Checkpoint.Written; w2 != w1 {
		t.Fatalf("idle CheckpointAll rewrote: %d -> %d", w1, w2)
	}
	ingest(t, r, "a", 1)
	if err := r.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	if w3 := r.Stats().Checkpoint.Written; w3 != w1+1 {
		t.Fatalf("dirty CheckpointAll wrote %d, want %d", w3, w1+1)
	}
}

func TestSnapshotServesColdStreamFromDisk(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(0, 0)
	r := mustNew(t, Config{DataDir: dir, TTL: time.Second, now: func() time.Time { return now }})
	ingest(t, r, "a", 6)
	now = now.Add(2 * time.Second)
	if n := r.Sweep(); n != 1 {
		t.Fatalf("sweep %d", n)
	}
	var buf1, buf2 []byte
	{
		var w bytesWriter
		if err := r.Snapshot("a", &w); err != nil {
			t.Fatal(err)
		}
		buf1 = w.b
	}
	if in, _ := r.Stat("a"); in.Resident {
		t.Fatal("Snapshot of a cold stream restored it")
	}
	raw, err := os.ReadFile(filepath.Join(dir, "a.snap"))
	if err != nil {
		t.Fatal(err)
	}
	buf2 = raw
	if string(buf1) != string(buf2) {
		t.Fatal("cold Snapshot differs from the on-disk file")
	}
}

type bytesWriter struct{ b []byte }

func (w *bytesWriter) Write(p []byte) (int, error) { w.b = append(w.b, p...); return len(p), nil }

// TestConcurrentChurn is the eviction-under-traffic race test: many
// goroutines hammer ingest and queries across more streams than may be
// resident while TTL sweeps run concurrently, so hibernate/restore churn
// constantly interleaves with traffic. Run with -race. At the end every
// stream must have exactly the points its producers were acknowledged
// for — eviction may never lose a point.
func TestConcurrentChurn(t *testing.T) {
	const (
		streams   = 24
		producers = 8
		rounds    = 40
		batch     = 5
	)
	dir := t.TempDir()
	r := mustNew(t, Config{DataDir: dir, MaxResident: 4, TTL: time.Nanosecond})

	ids := make([]string, streams)
	for i := range ids {
		ids[i] = fmt.Sprintf("tenant-%02d", i)
	}
	var sent [streams]atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Sweeper: with a nanosecond TTL every resident stream is always
	// sweepable, so hibernation churns as fast as it can.
	sweepDone := make(chan struct{})
	go func() {
		defer close(sweepDone)
		for {
			select {
			case <-stop:
				return
			default:
				r.Sweep()
			}
		}
	}()

	pts := make([][]float64, batch)
	for i := range pts {
		pts[i] = []float64{float64(i), 1}
	}
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				id := (p + round) % streams
				err := r.With(ids[id], true, func(_ *Stream, b Backend) error {
					b.AddBatch(pts)
					return nil
				})
				if err != nil {
					t.Errorf("ingest %s: %v", ids[id], err)
					return
				}
				sent[id].Add(batch)
				// Interleave queries and stats so every code path runs
				// against the churn.
				if round%3 == 0 {
					r.With(ids[(id+streams/2)%streams], true, func(_ *Stream, b Backend) error {
						b.Centers()
						return nil
					})
				}
				if round%7 == 0 {
					r.List()
					r.Stats()
				}
			}
		}(p)
	}
	wg.Wait()
	close(stop)
	<-sweepDone

	st := r.Stats()
	if st.Registry.Evictions == 0 || st.Registry.Restores == 0 {
		t.Fatalf("churn produced no eviction/restore cycles: %+v", st.Registry)
	}
	if st.Registry.EvictFailures != 0 {
		t.Fatalf("evict failures: %+v", st.Registry)
	}
	for i, id := range ids {
		want := sent[i].Load()
		if want == 0 {
			continue
		}
		if got := streamCount(t, r, id); got != want {
			t.Errorf("stream %s: count %d, want %d (points lost in churn)", id, got, want)
		}
	}
}

func BenchmarkRegistryIngestResident(b *testing.B) {
	r, err := New(fakeHooks(Config{}))
	if err != nil {
		b.Fatal(err)
	}
	pts := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.With("bench", true, func(_ *Stream, be Backend) error {
			be.AddBatch(pts)
			return nil
		})
	}
}

func BenchmarkRegistryHibernateRestore(b *testing.B) {
	dir := b.TempDir()
	r, err := New(fakeHooks(Config{DataDir: dir}))
	if err != nil {
		b.Fatal(err)
	}
	ingest := [][]float64{{1, 2}}
	r.With("bench", true, func(_ *Stream, be Backend) error { be.AddBatch(ingest); return nil })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.mu.Lock()
		e := r.streams["bench"]
		r.mu.Unlock()
		if err := r.hibernate(e); err != nil {
			b.Fatal(err)
		}
		if err := r.With("bench", false, func(*Stream, Backend) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}
