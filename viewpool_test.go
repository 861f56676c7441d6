package complexobj

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"complexobj/cobench"
)

// sameMeasurement compares two results as measurements: every field but
// Elapsed, which is wall-clock observability (never a paper counter) and
// legitimately differs between runs.
func sameMeasurement(a, b QueryResult) bool {
	a.Elapsed, b.Elapsed = 0, 0
	return reflect.DeepEqual(a, b)
}

// poolBaseline builds a frozen base plus the per-query batch results the
// served path must reproduce.
func poolBaseline(t *testing.T) (*Base, map[cobench.Query]QueryResult, cobench.Workload) {
	t.Helper()
	gen := cobench.DefaultConfig().WithN(60)
	w := cobench.Workload{Loops: 20, Samples: 6, Seed: 1993}
	db, err := OpenLoaded(DASDBSNSM, Options{BufferPages: 256}, gen)
	if err != nil {
		t.Fatal(err)
	}
	base, err := db.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { base.Close() })
	want := make(map[cobench.Query]QueryResult)
	for _, q := range cobench.AllQueries() {
		res, err := db.Run(q, w)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = res
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return base, want, w
}

// TestViewPoolReuse pins the recycling contract at the facade: a pool of
// 2 views serves many sequential requests — including mutating ones —
// with bit-identical results to the batch run, never copies the base, and
// hands every request a view with a clean overlay and zeroed counters.
func TestViewPoolReuse(t *testing.T) {
	base, want, w := poolBaseline(t)
	arena := base.ArenaBytes()
	pool, err := NewViewPool(base, Options{BufferPages: 256}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	for round := 0; round < 3; round++ {
		for _, q := range cobench.AllQueries() {
			v, err := pool.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			if ms := v.MemStats(); ms.OverlayPages != 0 {
				t.Fatalf("round %d %s: acquired view has %d overlay pages", round, q, ms.OverlayPages)
			}
			if s := v.Stats(); s != (Stats{}) {
				t.Fatalf("round %d %s: acquired view has counters %+v", round, q, s)
			}
			res, err := v.Run(q, w)
			if err != nil {
				t.Fatal(err)
			}
			if !sameMeasurement(res, want[q]) {
				t.Errorf("round %d: pooled %s = %+v, want %+v", round, q, res, want[q])
			}
			if err := v.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}

	st := pool.Stats()
	if st.Created > 2 {
		t.Errorf("pool created %d views for sequential requests, want <= 2 (no base copies)", st.Created)
	}
	if st.Reused < 18 {
		t.Errorf("pool reused views %d times, want >= 18", st.Reused)
	}
	if st.Rebuilt == 0 {
		t.Error("update queries never triggered a metadata rebuild")
	}
	if st.Destroyed != 0 {
		t.Errorf("%d views destroyed (recycle failures)", st.Destroyed)
	}
	if base.ArenaBytes() != arena {
		t.Errorf("base arena changed size: %d -> %d", arena, base.ArenaBytes())
	}
}

// TestViewPoolConcurrent runs many concurrent clients over a small pool
// (race-checked in CI): every request's private counters must equal the
// serial batch result, and the pool must bound the views it builds.
func TestViewPoolConcurrent(t *testing.T) {
	base, want, w := poolBaseline(t)
	const maxViews, clients = 3, 8
	pool, err := NewViewPool(base, Options{BufferPages: 256}, maxViews)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			queries := cobench.AllQueries()
			for i := range queries {
				q := queries[(i+c)%len(queries)] // stagger the order per client
				v, err := pool.Acquire()
				if err != nil {
					errs <- err
					return
				}
				res, err := v.Run(q, w)
				cerr := v.Close()
				if err != nil {
					errs <- err
					return
				}
				if cerr != nil {
					errs <- cerr
					return
				}
				if !sameMeasurement(res, want[q]) {
					t.Errorf("client %d: concurrent %s diverged from serial batch run", c, q)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.Created > maxViews {
		t.Errorf("pool created %d views, bound is %d", st.Created, maxViews)
	}
}

// TestViewPoolSharesScanStaging: a pool's views share the staging of
// NSM's query 1c (store.ScanStages), so a view the pool opens while
// another is out starts on the staging the other settled. Each view
// growing its own made a served scan's bytes depend on when the pool
// happened to open a view.
func TestViewPoolSharesScanStaging(t *testing.T) {
	if poisoned {
		t.Skip("under the poison tag scratch is never reused")
	}
	db, err := OpenLoaded(NSM, Options{BufferPages: 256}, cobench.DefaultConfig().WithN(300))
	if err != nil {
		t.Fatal(err)
	}
	base, err := db.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	pool, err := NewViewPool(base, Options{BufferPages: 256}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	var views [2]*View
	for i := range views {
		if views[i], err = pool.Acquire(); err != nil {
			t.Fatal(err)
		}
		defer views[i].Close()
	}
	w := cobench.Workload{Loops: 1, Samples: 1, Seed: 1993}
	scan := func(v *View) uint64 {
		t.Helper()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := v.Run(cobench.Q1c, w)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		return m1.TotalAlloc - m0.TotalAlloc
	}
	cold := scan(views[0])
	scan(views[0]) // the strings settle on one buffer
	fresh := scan(views[1])
	if fresh*2 > cold {
		t.Errorf("the second view's first scan allocated %d B, the first view's %d B: want under half", fresh, cold)
	}
}

// TestViewPoolClose pins shutdown: Acquire fails after Close, and close
// is idempotent.
func TestViewPoolClose(t *testing.T) {
	base, _, _ := poolBaseline(t)
	pool, err := NewViewPool(base, Options{BufferPages: 256}, 1)
	if err != nil {
		t.Fatal(err)
	}
	v, err := pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	// A double Close must fail instead of double-releasing the view into
	// the pool (which would hand two requests the same engine).
	if err := v.Close(); err == nil {
		t.Error("double Close of a pooled view succeeded")
	}
	// The engine is still recycled to the next lease (a fresh handle, so
	// stale handles cannot reach it), and a late duplicate Close of the
	// old handle stays an error while the new lease is out.
	v2, err := pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.Reused != 1 || st.Created != 1 {
		t.Errorf("pool stats after re-acquire: %+v, want 1 created / 1 reused", st)
	}
	if err := v.Close(); err == nil {
		t.Error("stale handle Close succeeded while its engine serves a new lease")
	}
	if err := v2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Acquire(); err != ErrPoolClosed {
		t.Errorf("Acquire after Close: %v, want ErrPoolClosed", err)
	}
	if err := pool.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestStandaloneView covers Base.NewView without a pool: Close destroys
// the view and the base survives.
func TestStandaloneView(t *testing.T) {
	base, want, w := poolBaseline(t)
	v, err := base.NewView(Options{BufferPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind() != DASDBSNSM || v.NumObjects() != 60 {
		t.Fatalf("view identity: kind %s, %d objects", v.Kind(), v.NumObjects())
	}
	res, err := v.Run(cobench.Q2b, w)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMeasurement(res, want[cobench.Q2b]) {
		t.Error("standalone view diverged from batch run")
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	// The base stays usable for further views.
	v2, err := base.NewView(Options{BufferPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	v2.Close()
}
