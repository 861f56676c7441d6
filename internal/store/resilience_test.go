package store

import (
	"testing"

	"complexobj/cobench"
	"complexobj/internal/disk"
	"complexobj/internal/faultdisk"
)

// TestNewEngineValidationErrors: invalid configurations must come back as
// errors, not construction panics.
func TestNewEngineValidationErrors(t *testing.T) {
	if _, err := NewEngine(Options{BufferPages: -1}); err == nil {
		t.Error("negative buffer capacity accepted")
	}
}

// TestNewEngineFailureLeaksNoBaseRef: a view whose engine fails
// validation must not have taken (and lost) a base-arena reference — the
// leak would keep snapshot mappings alive forever in a long-lived server
// that retries view construction.
func TestNewEngineFailureLeaksNoBaseRef(t *testing.T) {
	stations, err := cobench.Generate(cobench.DefaultConfig().WithN(20))
	if err != nil {
		t.Fatal(err)
	}
	base, err := LoadBase(DSM, Options{}, stations)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Release()
	arena := base.arena

	if _, err := base.NewView(Options{BufferPages: -5}); err == nil {
		t.Fatal("negative buffer capacity accepted")
	}
	if got := arena.Refs(); got != 1 {
		t.Errorf("refs after failed view (bad buffer) = %d, want 1", got)
	}

	// A successful view takes exactly one reference and returns it on
	// Close — the baseline the failure paths are measured against.
	v, err := base.NewView(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := arena.Refs(); got != 2 {
		t.Errorf("refs with one live view = %d, want 2", got)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if got := arena.Refs(); got != 1 {
		t.Errorf("refs after view Close = %d, want 1", got)
	}
}

// TestSharedBaseOpenFailureLeaksNoRef forces every failure stage of
// SharedBase.NewView — pre-backend validation and post-engine metadata
// restore — and asserts the base arena's reference count is restored, so
// a server whose view construction fails under faults does not pin the
// snapshot mapping.
func TestSharedBaseOpenFailureLeaksNoRef(t *testing.T) {
	arena := disk.NewBaseArena(make([]byte, 4*disk.DefaultPageSize))
	defer arena.Release()
	base := NewSharedBase(DSM, []byte("not a meta blob"), arena)

	// Validation failures (before the engine exists).
	if _, err := base.NewView(Options{CountIndexIO: true}); err == nil {
		t.Error("counted-index options accepted from a shared base")
	}
	if _, err := base.NewView(Options{BufferPages: -1}); err == nil {
		t.Error("negative buffer capacity accepted")
	}
	if got := arena.Refs(); got != 1 {
		t.Errorf("refs after validation failures = %d, want 1", got)
	}

	// RestoreMeta failure (after the engine - and its base ref - exist).
	if _, err := base.NewView(Options{BufferPages: 8}); err == nil {
		t.Fatal("garbage directory metadata restored")
	}
	if got := arena.Refs(); got != 1 {
		t.Errorf("refs after RestoreMeta failure = %d, want 1 (engine ref leaked)", got)
	}
}

// TestFaultedViewsLeakNoRefs is the end-to-end leak pin: open COW views
// under a hostile schedule, let some requests fail, close everything, and
// require the base arena back at exactly one reference.
func TestFaultedViewsLeakNoRefs(t *testing.T) {
	stations := testExtension(t, 20)
	orig := loadModel(t, DSM, stations)
	base, err := Freeze(orig)
	if err != nil {
		t.Fatal(err)
	}
	orig.Engine().Close()
	defer base.Release()

	in := faultdisk.New(faultdisk.Spec{Seed: 11, Read: 0.4, Write: 0.4, Perm: 0.05})
	for i := 0; i < 8; i++ {
		m, err := base.NewView(Options{BufferPages: 8, Faults: in})
		if err != nil {
			continue // construction failed cleanly; ref must be returned
		}
		// Run a few operations; failures are expected and irrelevant -
		// only the ref accounting is under test.
		m.FetchByAddress(i % 20)
		m.UpdateRoots([]int32{int32(i % 20)}, func(i int32, r *cobench.RootRecord) { r.NoPlatform++ })
		m.Engine().Close()
	}
	if got := refsOf(base); got != 1 {
		t.Errorf("refs after faulted view churn = %d, want 1", got)
	}
}

// refsOf exposes the base arena's reference count to the leak tests.
func refsOf(b *SharedBase) int { return b.arena.Refs() }

// TestEngineWrapsBackendWithFaults: Options.Faults must interpose the
// injector under the device (visible through the Unwrap convention).
func TestEngineWrapsBackendWithFaults(t *testing.T) {
	in := faultdisk.New(faultdisk.Spec{Seed: 1})
	eng, err := NewEngine(Options{BufferPages: 8, Faults: in})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	u, ok := eng.Dev.Backend().(interface{ Unwrap() disk.Backend })
	if !ok {
		t.Fatal("engine backend is not the fault wrapper")
	}
	if u.Unwrap() == nil {
		t.Fatal("fault wrapper has no substrate")
	}
}

// TestTransientScheduleKeepsCountersIdentical is the bit-identity pin at
// the store level: a model under a transient-read-only schedule (absorbed
// by the device retry) measures exactly the counters of a fault-free
// model.
func TestTransientScheduleKeepsCountersIdentical(t *testing.T) {
	stations := testExtension(t, 30)

	clean := loadModel(t, DSM, stations)
	defer clean.Engine().Close()
	if err := clean.ScanAll(func(int, *cobench.Station) error { return nil }); err != nil {
		t.Fatal(err)
	}
	want := clean.Engine().Stats()

	in := faultdisk.New(faultdisk.Spec{Seed: 5, Read: 0.05})
	faulted, err := New(DSM, Options{BufferPages: 256, Faults: in})
	if err != nil {
		t.Fatal(err)
	}
	defer faulted.Engine().Close()
	if err := faulted.Load(stations); err != nil {
		t.Fatalf("load under transient reads: %v", err)
	}
	if err := faulted.Engine().ColdCache(); err != nil {
		t.Fatal(err)
	}
	faulted.Engine().ResetStats()
	if err := faulted.ScanAll(func(int, *cobench.Station) error { return nil }); err != nil {
		t.Fatalf("scan under transient reads: %v", err)
	}
	if got := faulted.Engine().Stats(); got != want {
		t.Errorf("counters diverged under transient faults:\n got %+v\nwant %+v", got, want)
	}
	if in.Counters().ReadFaults == 0 {
		t.Error("schedule injected no read faults; the pin is vacuous")
	}
	if faulted.Engine().Dev.Retries() == 0 {
		t.Error("no retries recorded; the pin is vacuous")
	}
}
