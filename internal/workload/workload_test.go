package workload

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"complexobj/cobench"
	"complexobj/internal/store"
)

func loadedRunner(t *testing.T, k store.Kind, n int) *Runner {
	t.Helper()
	cfg := cobench.DefaultConfig().WithN(n)
	stations, err := cobench.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := mustNew(k, store.Options{BufferPages: 256})
	if err := m.Load(stations); err != nil {
		t.Fatal(err)
	}
	w := cobench.DefaultWorkload()
	w.Loops = 40
	w.Samples = 10
	return NewRunner(m, w)
}

// runAll executes every benchmark query in paper order.
func runAll(t *testing.T, r *Runner) []Result {
	t.Helper()
	var out []Result
	for _, q := range cobench.AllQueries() {
		res, err := r.Run(q)
		if err != nil {
			t.Fatalf("%s on %s: %v", q, r.model.Kind(), err)
		}
		out = append(out, res)
	}
	return out
}

func TestRunAllModelsAllQueries(t *testing.T) {
	for _, k := range store.AllKinds() {
		t.Run(k.String(), func(t *testing.T) {
			results := runAll(t, loadedRunner(t, k, 150))
			if len(results) != 7 {
				t.Fatalf("got %d results", len(results))
			}
			for _, res := range results {
				if res.Query == cobench.Q1a && k == store.NSM {
					if res.Supported {
						t.Error("pure NSM claims to support query 1a")
					}
					continue
				}
				if !res.Supported {
					t.Errorf("%s unsupported on %s", res.Query, k)
					continue
				}
				if res.Units <= 0 {
					t.Errorf("%s: units %f", res.Query, res.Units)
				}
				n := res.PerUnit()
				if n.Pages <= 0 {
					t.Errorf("%s: no page I/O measured", res.Query)
				}
				if n.Calls <= 0 {
					t.Errorf("%s: no I/O calls measured", res.Query)
				}
				if n.Fixes <= 0 {
					t.Errorf("%s: no buffer fixes measured", res.Query)
				}
			}
		})
	}
}

func TestQ1cCountsEveryObject(t *testing.T) {
	r := loadedRunner(t, store.DSM, 120)
	res, err := r.Run(cobench.Q1c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Units != 120 {
		t.Errorf("Q1c units = %f, want 120", res.Units)
	}
}

func TestQ2TouchedMatchesExpectation(t *testing.T) {
	// Touched objects per loop should be near 1 + children + grand-children
	// = 1 + 4.1 + 16.8 ≈ 21.9.
	r := loadedRunner(t, store.DASDBSNSM, 400)
	res, err := r.Run(cobench.Q2b)
	if err != nil {
		t.Fatal(err)
	}
	perLoop := float64(res.Touched) / res.Units
	if math.Abs(perLoop-21.9) > 6 {
		t.Errorf("touched/loop = %f, want ~21.9", perLoop)
	}
}

func TestQ3WritesQ2DoesNot(t *testing.T) {
	for _, k := range store.AllKinds() {
		r := loadedRunner(t, k, 150)
		q2, err := r.Run(cobench.Q2b)
		if err != nil {
			t.Fatal(err)
		}
		if q2.Stats.PagesWritten != 0 {
			t.Errorf("%s: query 2b wrote %d pages", k, q2.Stats.PagesWritten)
		}
		q3, err := r.Run(cobench.Q3b)
		if err != nil {
			t.Fatal(err)
		}
		if q3.Stats.PagesWritten == 0 {
			t.Errorf("%s: query 3b wrote nothing", k)
		}
	}
}

// TestUpdatesArePersistent: what an update query writes is what a later
// read returns. Query 3b leaves stamped roots behind; query 3a, run twice
// through one runner on every model, leaves every root it updated reading
// exactly the stamp of its last update — the runner's stamps outlive the
// batch that wrote them.
func TestUpdatesArePersistent(t *testing.T) {
	r := loadedRunner(t, store.DASDBSNSM, 150)
	if _, err := r.Run(cobench.Q3b); err != nil {
		t.Fatal(err)
	}
	// After the query, some roots must carry the update stamp.
	if err := r.model.Engine().ColdCache(); err != nil {
		t.Fatal(err)
	}
	stamped := 0
	for i := 0; i < 150; i++ {
		root, err := r.model.ReadRoot(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(root.Name) > 3 && root.Name[:3] == "upd" {
			stamped++
		}
	}
	if stamped == 0 {
		t.Error("no station carries the update stamp after query 3b")
	}

	stations, err := cobench.Generate(cobench.DefaultConfig().WithN(150))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range store.AllKinds() {
		t.Run(k.String(), func(t *testing.T) {
			r := loadedRunner(t, k, 150)
			for range 2 {
				if _, err := r.Run(cobench.Q3a); err != nil {
					t.Fatal(err)
				}
			}
			want := map[int32]string{}
			for loop, root := range slices.Clone(r.samples(cobench.Q3a)) {
				for _, c := range stations[root].Children() {
					for _, g := range stations[c].Children() {
						want[g] = fmt.Sprintf("upd %d #%d", loop, g)
					}
				}
			}
			if len(want) == 0 {
				t.Fatal("query 3a updated no root")
			}
			for g, name := range want {
				root, err := r.model.ReadRoot(int(g))
				if err != nil {
					t.Fatal(err)
				}
				if root.Name != name {
					t.Errorf("root %d reads %q, want %q", g, root.Name, name)
				}
			}
		})
	}
}

// TestStampRootFormat pins the update queries' stamp to the bytes
// fmt.Sprintf("upd %d #%d", loop, object) produced when the tables were
// first generated — every stored size since depends on them — and its cost
// to a share of the runner's string arena: far below one allocation per
// stamp, and no stamp rewritten by a later one.
func TestStampRootFormat(t *testing.T) {
	r := NewRunner(nil, cobench.Workload{})
	var rec cobench.RootRecord
	for _, c := range []struct{ stamp, obj int }{{0, 0}, {7, 1499}, {299, 12}, {123456, 2147483647}} {
		r.stamp = c.stamp
		r.stampRoot(int32(c.obj), &rec)
		if want := fmt.Sprintf("upd %d #%d", c.stamp, c.obj); rec.Name != want {
			t.Errorf("stamp(%d, %d) = %q, want %q", c.stamp, c.obj, rec.Name, want)
		}
	}
	first := rec.Name
	const stamps = 1000
	allocs := testing.AllocsPerRun(10, func() {
		for i := range int32(stamps) {
			r.stampRoot(i, &rec)
		}
	})
	if perStamp := allocs / stamps; perStamp >= 0.01 {
		t.Errorf("a stamp costs %.4f allocations amortised over %d, want < 0.01", perStamp, stamps)
	}
	if first != "upd 123456 #2147483647" {
		t.Errorf("an earlier stamp changed to %q when the scratch was reused", first)
	}
}

func TestDeterministicResults(t *testing.T) {
	a := loadedRunner(t, store.DSM, 150)
	b := loadedRunner(t, store.DSM, 150)
	ra, err := a.Run(cobench.Q2b)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Run(cobench.Q2b)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Stats != rb.Stats {
		t.Errorf("same seed, different stats: %v vs %v", ra.Stats, rb.Stats)
	}
}

func TestRunOnEmptyModelFails(t *testing.T) {
	m := mustNew(store.DSM, store.Options{BufferPages: 16})
	r := NewRunner(m, cobench.DefaultWorkload())
	if _, err := r.Run(cobench.Q1a); err == nil {
		t.Error("query on empty model succeeded")
	}
}

func TestResultPerUnitUnsupported(t *testing.T) {
	res := Result{Supported: false}
	if res.PerUnit().Pages != 0 {
		t.Error("unsupported result produced numbers")
	}
}

func TestLoopsDefaultFromDatabaseSize(t *testing.T) {
	// Loops <= 0 falls back to the Figure 6 convention N/5.
	cfg := cobench.DefaultConfig().WithN(100)
	stations, err := cobench.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := mustNew(store.DASDBSNSM, store.Options{BufferPages: 128})
	if err := m.Load(stations); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(m, cobench.Workload{Loops: 0, Samples: 5, Seed: 3})
	res, err := r.Run(cobench.Q2b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Units != 20 {
		t.Errorf("default loops = %f, want 20 (N/5)", res.Units)
	}
}

func TestSamplesClampedToDatabase(t *testing.T) {
	r := loadedRunner(t, store.DSM, 8) // workload asks for 10 samples
	res, err := r.Run(cobench.Q1a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Units != 8 {
		t.Errorf("samples = %f, want clamped to 8", res.Units)
	}
}

func TestQ3aFlushesWithinMeasurement(t *testing.T) {
	r := loadedRunner(t, store.DSM, 100)
	res, err := r.Run(cobench.Q3a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PagesWritten == 0 {
		t.Error("query 3a counted no writes; flush must happen inside the measurement")
	}
	// After the query no dirty pages linger: an immediate flush is a no-op.
	r.model.Engine().ResetStats()
	if err := r.model.Flush(); err != nil {
		t.Fatal(err)
	}
	if w := r.model.Engine().Stats().PagesWritten; w != 0 {
		t.Errorf("post-query flush wrote %d pages", w)
	}
}

func TestSampleSchedulesAreQuerySpecific(t *testing.T) {
	r := loadedRunner(t, store.DSM, 200)
	a := slices.Clone(r.samples(cobench.Q1a)) // the schedule is engine scratch, good until the next draw
	b := slices.Clone(r.samples(cobench.Q2a))
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different queries draw identical sample schedules")
	}
	// But the same query is deterministic.
	c := r.samples(cobench.Q1a)
	for i := range a {
		if a[i] != c[i] {
			t.Fatal("sample schedule not deterministic")
		}
	}
}

// mustNew builds a model over a fresh in-memory engine; construction
// cannot fail for the memory backend.
func mustNew(k store.Kind, o store.Options) store.Model {
	m, err := store.New(k, o)
	if err != nil {
		panic(err)
	}
	return m
}
