package persist

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"streamkm/internal/core"
	"streamkm/internal/coreset"
	"streamkm/internal/decay"
	"streamkm/internal/kmeans"
	"streamkm/internal/window"
)

// Backend type discriminators inside a BackendSnapshot. They mirror the
// public streamkm.BackendType values; persist keeps its own copies so the
// format is defined entirely in this package.
const (
	BackendConcurrent = "concurrent"
	BackendDecayed    = "decayed"
	BackendWindowed   = "windowed"
)

// BackendSnapshot (format version 3) is a typed serving backend: which
// variant it is, the spec it was opened with, and the variant's payload.
// Exactly one of Sharded/Decayed/Window is set, matching Type. The spec
// metadata is stored denormalized so a Peek never has to descend into
// payloads.
type BackendSnapshot struct {
	// Type discriminates the payload: BackendConcurrent, BackendDecayed
	// or BackendWindowed.
	Type string
	// Algo is the summary structure (CT/CC/RCC) for concurrent and
	// decayed backends; empty for windowed (its histogram is not built on
	// the coreset tree).
	Algo string
	// K is the number of centers answered by queries.
	K int
	// Dim is the point dimension probed from stored points (0 when no
	// point had been ingested yet).
	Dim int
	// Shards is the ingest parallelism. 0 on decayed/windowed snapshots
	// written before format version 4 (which serialized one lock-bound
	// structure); those restore as single-lane backends.
	Shards int
	// HalfLife is the decay half-life in arrival counts (decayed only;
	// mutually exclusive with HalfLifeSeconds).
	HalfLife float64
	// HalfLifeSeconds is the wall-clock decay half-life (decayed only;
	// format version 4).
	HalfLifeSeconds float64
	// WindowN is the sliding-window length in points (windowed only).
	WindowN int64
	// Count is the number of points observed across the stream.
	Count int64

	// Sequencer cursors for lane-sharded decayed/windowed backends
	// (format version 4). Clock is the global arrival-index cursor
	// (>= Count: indices reserved by in-flight batches are issued but not
	// applied); RR is the round-robin lane dispatch cursor.
	Clock int64
	RR    int64
	// ElapsedSeconds is the stream's wall-clock age at snapshot time
	// (wall-clock decayed only), so a restored stream's clock resumes
	// where the snapshot stopped instead of at zero.
	ElapsedSeconds float64

	// Per-tenant quota knobs (0 = unlimited), carried so a hibernated or
	// migrated tenant keeps its limits. Older snapshots decode them as
	// zero — unlimited, the pre-quota behavior.
	PointsPerSec     float64
	BytesPerSec      float64
	MaxResidentBytes int64

	// Sharded is the concurrent payload — the same v2 ShardedSnapshot,
	// wrapped instead of top-level.
	Sharded *ShardedSnapshot
	// Decayed is the legacy (pre-v4) single-lock forward-decay payload.
	// New snapshots write DecayedShards instead; Decayed is read-only
	// back-compat and restores into lane 0 of a single-lane backend.
	Decayed *DecayedSnapshot
	// Window is the legacy (pre-v4) single-lock sliding-window payload;
	// like Decayed, it restores into lane 0.
	Window *window.Snapshot

	// DecayedShards holds one forward-decay lane per ingest shard
	// (format version 4); exactly one of Decayed/DecayedShards is set on
	// a decayed snapshot.
	DecayedShards []DecayedShardSnapshot
	// WindowShards holds one sliding-window histogram per ingest lane
	// (format version 4); exactly one of Window/WindowShards is set on a
	// windowed snapshot.
	WindowShards []window.Snapshot
}

// DecayedSnapshot is the forward-decay wrapper's payload: the decay state
// (rate + logical clock) around a v1 single-clusterer envelope holding
// the wrapped driver.
type DecayedSnapshot struct {
	State decay.State
	Inner Envelope
}

// DecayedShardSnapshot is one lane of a sharded forward-decay backend:
// the lane's reference time (the global arrival time — index or seconds
// — at which its stored-weight scale is 1) around a v1 single-clusterer
// envelope holding the lane's driver.
type DecayedShardSnapshot struct {
	RefT  float64
	Inner Envelope
}

// ValidateBackend rejects backend envelopes whose discriminator, spec and
// payload disagree; snapshots are untrusted disk input. The spec fields
// are cross-checked against the payload, not just bounds-checked: the
// spec is what PUT-vs-restore validation and boot peeks trust, while the
// payload is what the restored backend actually does — letting them
// diverge would restore exactly the silently wrong model the spec guard
// exists to prevent.
func ValidateBackend(bs *BackendSnapshot) error {
	if bs == nil {
		return fmt.Errorf("persist: Backend envelope missing state")
	}
	if bs.K < 1 {
		return fmt.Errorf("persist: invalid k %d in backend snapshot", bs.K)
	}
	if bs.Count < 0 {
		return fmt.Errorf("persist: negative count %d in backend snapshot", bs.Count)
	}
	if bs.Dim < 0 {
		return fmt.Errorf("persist: negative dimension %d in backend snapshot", bs.Dim)
	}
	// Quotas are bounds-checked only: they are operator policy, not
	// payload-derived state, so there is nothing to cross-check against.
	if bs.PointsPerSec < 0 {
		return fmt.Errorf("persist: negative points_per_sec %v in backend snapshot", bs.PointsPerSec)
	}
	if bs.BytesPerSec < 0 {
		return fmt.Errorf("persist: negative bytes_per_sec %v in backend snapshot", bs.BytesPerSec)
	}
	if bs.MaxResidentBytes < 0 {
		return fmt.Errorf("persist: negative max_resident_bytes %d in backend snapshot", bs.MaxResidentBytes)
	}
	switch bs.Type {
	case BackendConcurrent:
		if bs.Sharded == nil {
			return fmt.Errorf("persist: concurrent backend snapshot missing sharded payload")
		}
		if err := validateSharded(bs.Sharded); err != nil {
			return err
		}
		if bs.K != bs.Sharded.K {
			return fmt.Errorf("persist: backend k=%d disagrees with sharded payload k=%d", bs.K, bs.Sharded.K)
		}
		if bs.Count != bs.Sharded.Count {
			return fmt.Errorf("persist: backend count %d disagrees with sharded payload count %d", bs.Count, bs.Sharded.Count)
		}
		if bs.Shards != 0 && bs.Shards != len(bs.Sharded.Shards) {
			return fmt.Errorf("persist: backend shards=%d disagrees with %d payload shards", bs.Shards, len(bs.Sharded.Shards))
		}
		if bs.Algo != "" && bs.Algo != string(bs.Sharded.Shards[0].Kind) {
			return fmt.Errorf("persist: backend algo %s disagrees with payload kind %s", bs.Algo, bs.Sharded.Shards[0].Kind)
		}
		return nil
	case BackendDecayed:
		return validateDecayedBackend(bs)
	case BackendWindowed:
		return validateWindowedBackend(bs)
	}
	return fmt.Errorf("persist: unknown backend type %q in snapshot", bs.Type)
}

// validateCursors checks the v4 sequencer cursors shared by sharded
// decayed and windowed snapshots. A clock behind the count would reissue
// arrival indices already recorded inside the restored lanes — the
// "mismatched arrival cursors" corruption class.
func validateCursors(bs *BackendSnapshot) error {
	if bs.RR < 0 {
		return fmt.Errorf("persist: negative lane cursor %d in backend snapshot", bs.RR)
	}
	if bs.Clock < 0 {
		return fmt.Errorf("persist: negative arrival clock %d in backend snapshot", bs.Clock)
	}
	if bs.Clock != 0 && bs.Clock < bs.Count {
		return fmt.Errorf("persist: arrival clock %d behind count %d in backend snapshot", bs.Clock, bs.Count)
	}
	return nil
}

func validateDecayedBackend(bs *BackendSnapshot) error {
	// Exactly one half-life encoding: arrival-count or wall-clock.
	if bs.HalfLife < 0 || math.IsInf(bs.HalfLife, 0) || math.IsNaN(bs.HalfLife) {
		return fmt.Errorf("persist: invalid half-life %v in decayed backend snapshot", bs.HalfLife)
	}
	if bs.HalfLifeSeconds < 0 || math.IsInf(bs.HalfLifeSeconds, 0) || math.IsNaN(bs.HalfLifeSeconds) {
		return fmt.Errorf("persist: invalid wall-clock half-life %v in decayed backend snapshot", bs.HalfLifeSeconds)
	}
	if (bs.HalfLife > 0) == (bs.HalfLifeSeconds > 0) {
		return fmt.Errorf("persist: decayed backend snapshot needs exactly one of half-life (%v) and wall-clock half-life (%v)",
			bs.HalfLife, bs.HalfLifeSeconds)
	}
	if bs.ElapsedSeconds < 0 || math.IsInf(bs.ElapsedSeconds, 0) || math.IsNaN(bs.ElapsedSeconds) {
		return fmt.Errorf("persist: invalid elapsed seconds %v in decayed backend snapshot", bs.ElapsedSeconds)
	}
	if bs.ElapsedSeconds != 0 && bs.HalfLifeSeconds == 0 {
		return fmt.Errorf("persist: elapsed seconds %v on an arrival-count decayed backend snapshot", bs.ElapsedSeconds)
	}
	if err := validateCursors(bs); err != nil {
		return err
	}
	if (bs.Decayed == nil) == (len(bs.DecayedShards) == 0) {
		return fmt.Errorf("persist: decayed backend snapshot needs exactly one of the legacy and the sharded payload")
	}
	if bs.Decayed != nil {
		// Legacy single-lock payload (pre-v4).
		if bs.HalfLife <= 0 {
			return fmt.Errorf("persist: legacy decayed backend snapshot without arrival-count half-life")
		}
		if err := decay.ValidateState(bs.Decayed.State); err != nil {
			return err
		}
		// half-life and lambda are two encodings of the same rate
		// (lambda = ln2/halfLife); tolerate only float rounding between
		// them.
		if impliedHalfLife := math.Ln2 / bs.Decayed.State.Lambda; relDiff(bs.HalfLife, impliedHalfLife) > 1e-9 {
			return fmt.Errorf("persist: backend half-life %v disagrees with payload rate (implies %v)",
				bs.HalfLife, impliedHalfLife)
		}
		return validateDecayedInner(bs, 0, bs.Decayed.Inner, bs.Count)
	}
	// Sharded payload (v4): per-lane reference times plus inner drivers
	// whose counts must add up to the stream count.
	if bs.Shards != 0 && bs.Shards != len(bs.DecayedShards) {
		return fmt.Errorf("persist: backend shards=%d disagrees with %d decayed lanes", bs.Shards, len(bs.DecayedShards))
	}
	var sum int64
	for i, ss := range bs.DecayedShards {
		if math.IsInf(ss.RefT, 0) || math.IsNaN(ss.RefT) {
			return fmt.Errorf("persist: lane %d reference time %v is not finite in decayed backend snapshot", i, ss.RefT)
		}
		if ss.Inner.Driver == nil {
			return fmt.Errorf("persist: lane %d missing driver state in decayed backend snapshot", i)
		}
		if err := validateDecayedInner(bs, i, ss.Inner, -1); err != nil {
			return err
		}
		if ss.Inner.Kind != bs.DecayedShards[0].Inner.Kind {
			return fmt.Errorf("persist: lane %d kind %q differs from lane 0 kind %q in decayed backend snapshot",
				i, ss.Inner.Kind, bs.DecayedShards[0].Inner.Kind)
		}
		sum += ss.Inner.Driver.Count
	}
	if sum != bs.Count {
		return fmt.Errorf("persist: backend count %d disagrees with %d points across decayed lanes", bs.Count, sum)
	}
	return nil
}

// validateDecayedInner checks one decayed lane's inner envelope against
// the backend metadata. wantCount < 0 skips the per-lane count check
// (sharded lanes are checked in aggregate instead).
func validateDecayedInner(bs *BackendSnapshot, lane int, inner Envelope, wantCount int64) error {
	switch inner.Kind {
	case KindCT, KindCC, KindRCC:
	default:
		return fmt.Errorf("persist: decayed backend lane %d wraps kind %q (want a driver-wrapped CT, CC or RCC)",
			lane, inner.Kind)
	}
	if d := inner.Driver; d != nil {
		if bs.K != d.K {
			return fmt.Errorf("persist: backend k=%d disagrees with decayed lane %d k=%d", bs.K, lane, d.K)
		}
		if wantCount >= 0 && wantCount != d.Count {
			return fmt.Errorf("persist: backend count %d disagrees with decayed payload count %d", wantCount, d.Count)
		}
	}
	if bs.Algo != "" && bs.Algo != string(inner.Kind) {
		return fmt.Errorf("persist: backend algo %s disagrees with payload kind %s", bs.Algo, inner.Kind)
	}
	return nil
}

func validateWindowedBackend(bs *BackendSnapshot) error {
	if bs.WindowN < 1 {
		return fmt.Errorf("persist: invalid window length %d in windowed backend snapshot", bs.WindowN)
	}
	if err := validateCursors(bs); err != nil {
		return err
	}
	if (bs.Window == nil) == (len(bs.WindowShards) == 0) {
		return fmt.Errorf("persist: windowed backend snapshot needs exactly one of the legacy and the sharded payload")
	}
	if bs.Window != nil {
		// Legacy single-lock payload (pre-v4).
		if err := bs.Window.Validate(); err != nil {
			return err
		}
		if bs.K != bs.Window.K {
			return fmt.Errorf("persist: backend k=%d disagrees with window payload k=%d", bs.K, bs.Window.K)
		}
		if bs.WindowN != bs.Window.WindowN {
			return fmt.Errorf("persist: backend window %d disagrees with payload window %d", bs.WindowN, bs.Window.WindowN)
		}
		if bs.Count != bs.Window.Count {
			return fmt.Errorf("persist: backend count %d disagrees with window payload count %d", bs.Count, bs.Window.Count)
		}
		return nil
	}
	// Sharded payload (v4): per-lane histograms tagged with global
	// arrival indices; a lane's newest index can never exceed the
	// sequencer clock.
	if bs.Shards != 0 && bs.Shards != len(bs.WindowShards) {
		return fmt.Errorf("persist: backend shards=%d disagrees with %d window lanes", bs.Shards, len(bs.WindowShards))
	}
	clock := bs.Clock
	if clock == 0 {
		clock = bs.Count
	}
	for i, ws := range bs.WindowShards {
		if err := ws.Validate(); err != nil {
			return fmt.Errorf("persist: window lane %d: %w", i, err)
		}
		if bs.K != ws.K {
			return fmt.Errorf("persist: backend k=%d disagrees with window lane %d k=%d", bs.K, i, ws.K)
		}
		if bs.WindowN != ws.WindowN {
			return fmt.Errorf("persist: backend window %d disagrees with lane %d window %d", bs.WindowN, i, ws.WindowN)
		}
		if ws.M != bs.WindowShards[0].M || ws.R != bs.WindowShards[0].R {
			return fmt.Errorf("persist: window lane %d parameters (m=%d r=%d) differ from lane 0 (m=%d r=%d)",
				i, ws.M, ws.R, bs.WindowShards[0].M, bs.WindowShards[0].R)
		}
		if ws.Count > clock {
			return fmt.Errorf("persist: window lane %d newest arrival %d exceeds sequencer clock %d", i, ws.Count, clock)
		}
	}
	return nil
}

// relDiff returns |a-b| relative to the larger magnitude (0 when both
// are 0).
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d / m
}

// SnapshotDecayed captures a decay.Clusterer into a DecayedSnapshot plus
// the probed point dimension. The caller (the public backend layer) wraps
// it into a BackendSnapshot together with its spec metadata.
func SnapshotDecayed(dc *decay.Clusterer) (*DecayedSnapshot, int, error) {
	inner, err := SnapshotClusterer(dc.Driver())
	if err != nil {
		return nil, 0, err
	}
	return &DecayedSnapshot{State: dc.State(), Inner: inner}, envelopeDim(inner), nil
}

// RestoreDecayed reconstructs a live decay.Clusterer from its payload.
// The caller supplies the non-serialized pieces, as for RestoreClusterer.
func RestoreDecayed(ds *DecayedSnapshot, seed int64, b coreset.Builder, opt kmeans.Options) (*decay.Clusterer, error) {
	if ds == nil {
		return nil, fmt.Errorf("persist: decayed backend snapshot missing payload")
	}
	if err := decay.ValidateState(ds.State); err != nil {
		return nil, err
	}
	inner, err := RestoreClusterer(ds.Inner, seed, b, opt)
	if err != nil {
		return nil, err
	}
	drv, ok := inner.(*core.Driver)
	if !ok {
		return nil, fmt.Errorf("persist: decayed backend wraps %T, want *core.Driver", inner)
	}
	dc := decay.New(drv, ds.State.Lambda)
	dc.RestoreState(ds.State)
	return dc, nil
}

// SnapshotDecayedShards captures the lanes of a sharded forward-decay
// backend (as exposed by decay.Sharded.Quiesce) plus the probed point
// dimension. The caller wraps the result into a BackendSnapshot together
// with the sequencer cursors.
func SnapshotDecayedShards(shards []*decay.Shard) ([]DecayedShardSnapshot, int, error) {
	out := make([]DecayedShardSnapshot, len(shards))
	dim := 0
	for i, sh := range shards {
		inner, err := SnapshotClusterer(sh.Driver())
		if err != nil {
			return nil, 0, fmt.Errorf("persist: decayed lane %d: %w", i, err)
		}
		out[i] = DecayedShardSnapshot{RefT: sh.RefT(), Inner: inner}
		if dim == 0 {
			dim = envelopeDim(inner)
		}
	}
	return out, dim, nil
}

// RestoreDecayedShards reconstructs the lanes of a sharded forward-decay
// backend. lambda is the stream's decay rate (derived by the caller from
// whichever half-life encoding the snapshot carries); per-lane seeds
// follow the same seed+lane*7919 convention as fresh construction.
func RestoreDecayedShards(sss []DecayedShardSnapshot, lambda float64, seed int64, b coreset.Builder, opt kmeans.Options) ([]*decay.Shard, error) {
	if len(sss) == 0 {
		return nil, fmt.Errorf("persist: decayed backend snapshot has no lanes")
	}
	out := make([]*decay.Shard, len(sss))
	for i, ss := range sss {
		inner, err := RestoreClusterer(ss.Inner, seed+int64(i)*7919, b, opt)
		if err != nil {
			return nil, fmt.Errorf("persist: decayed lane %d: %w", i, err)
		}
		drv, ok := inner.(*core.Driver)
		if !ok {
			return nil, fmt.Errorf("persist: decayed lane %d wraps %T, want *core.Driver", i, inner)
		}
		sh, err := decay.NewShard(drv, lambda, ss.RefT)
		if err != nil {
			return nil, err
		}
		out[i] = sh
	}
	return out, nil
}

// RestoreWindowShards reconstructs the lanes of a sharded sliding-window
// backend.
func RestoreWindowShards(wss []window.Snapshot, seed int64, b coreset.Builder, opt kmeans.Options) ([]*window.Clusterer, error) {
	if len(wss) == 0 {
		return nil, fmt.Errorf("persist: windowed backend snapshot has no lanes")
	}
	out := make([]*window.Clusterer, len(wss))
	for i, ws := range wss {
		wc, err := RestoreWindowed(&ws, seed+int64(i)*7919, b, opt)
		if err != nil {
			return nil, fmt.Errorf("persist: window lane %d: %w", i, err)
		}
		out[i] = wc
	}
	return out, nil
}

// RestoreWindowed reconstructs a live window.Clusterer from its payload.
func RestoreWindowed(ws *window.Snapshot, seed int64, b coreset.Builder, opt kmeans.Options) (*window.Clusterer, error) {
	if ws == nil {
		return nil, fmt.Errorf("persist: windowed backend snapshot missing payload")
	}
	if err := ws.Validate(); err != nil {
		return nil, err
	}
	wc, err := window.New(ws.K, ws.M, ws.R, ws.WindowN, b, rand.New(rand.NewSource(seed)), opt)
	if err != nil {
		return nil, err
	}
	wc.Restore(*ws)
	return wc, nil
}

// BackendMeta is the cheap-to-read description of any serving-backend
// snapshot — the spec fields plus the stream count — without rebuilding
// clustering structures. It covers both format generations: a bare v2
// sharded envelope reads as a concurrent backend.
type BackendMeta struct {
	Type            string
	Algo            string
	K               int
	Dim             int
	Shards          int
	HalfLife        float64
	HalfLifeSeconds float64
	WindowN         int64
	Count           int64

	// Quota knobs; zero on v2 sharded envelopes, which predate quotas.
	PointsPerSec     float64
	BytesPerSec      float64
	MaxResidentBytes int64
}

// PeekBackend decodes just the metadata of a serving-backend snapshot.
// The stream registry's boot scan uses it to register hibernated tenants
// of every backend variant with accurate metadata while keeping them
// cold.
func PeekBackend(r io.Reader) (BackendMeta, error) {
	env, err := Load(r)
	if err != nil {
		return BackendMeta{}, err
	}
	switch env.Kind {
	case KindSharded:
		// Legacy (v2) concurrent checkpoint: the spec lives in the sharded
		// payload.
		s := env.Sharded
		if err := validateSharded(s); err != nil {
			return BackendMeta{}, err
		}
		return BackendMeta{
			Type:   BackendConcurrent,
			Algo:   string(s.Shards[0].Kind),
			K:      s.K,
			Dim:    s.Dim,
			Shards: len(s.Shards),
			Count:  s.Count,
		}, nil
	case KindBackend:
		bs := env.Backend
		if err := ValidateBackend(bs); err != nil {
			return BackendMeta{}, err
		}
		return BackendMeta{
			Type: bs.Type, Algo: bs.Algo, K: bs.K, Dim: bs.Dim,
			Shards: bs.Shards, HalfLife: bs.HalfLife,
			HalfLifeSeconds: bs.HalfLifeSeconds, WindowN: bs.WindowN,
			Count: bs.Count, PointsPerSec: bs.PointsPerSec,
			BytesPerSec: bs.BytesPerSec, MaxResidentBytes: bs.MaxResidentBytes,
		}, nil
	}
	return BackendMeta{}, fmt.Errorf("persist: expected a serving-backend envelope, got kind %q", env.Kind)
}
