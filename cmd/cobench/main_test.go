package main

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"complexobj"
	"complexobj/cobench"
)

func TestQueryByName(t *testing.T) {
	for _, q := range cobench.AllQueries() {
		got, ok := cobench.QueryByName(q.String())
		if !ok || got != q {
			t.Errorf("cobench.QueryByName(%q) = %v, %v", q.String(), got, ok)
		}
	}
	if _, ok := cobench.QueryByName("9z"); ok {
		t.Error("bogus query accepted")
	}
}

func TestMetricFn(t *testing.T) {
	res := complexobj.QueryResult{
		PerUnit: complexobj.PerUnit{Pages: 1, Calls: 2, Fixes: 3, PagesWritten: 4},
	}
	for name, want := range map[string]float64{
		"pages": 1, "calls": 2, "fixes": 3, "writes": 4,
	} {
		fn, ok := metricFn(name)
		if !ok {
			t.Fatalf("metricFn(%q) missing", name)
		}
		if got := fn(res); got != want {
			t.Errorf("metric %q = %f, want %f", name, got, want)
		}
	}
	if _, ok := metricFn("bogus"); ok {
		t.Error("bogus metric accepted")
	}
}

// TestRepeatBuildsEachBaseOnce pins the local measuring path: however
// often the table is repeated, a model's base is built once and every
// repeat is a view of it — and the table is the same as a single run's.
func TestRepeatBuildsEachBaseOnce(t *testing.T) {
	gen := cobench.DefaultConfig().WithN(60)
	w := cobench.Workload{Loops: 10, Samples: 4, Seed: 3}
	opts := complexobj.Options{BufferPages: 64}
	get, _ := metricFn("pages")
	models := complexobj.AllModels()

	measure := func(repeat int) ([][]string, map[complexobj.ModelKind]int) {
		var mu sync.Mutex
		built := make(map[complexobj.ModelKind]int)
		rows, err := measureModels(models, cobench.AllQueries(), w, opts, 3, repeat,
			func(k complexobj.ModelKind) (*complexobj.Base, error) {
				mu.Lock()
				built[k]++
				mu.Unlock()
				return buildBase(k, "", opts, gen)
			}, get)
		if err != nil {
			t.Fatal(err)
		}
		return rows, built
	}
	once, _ := measure(1)
	thrice, built := measure(3)
	if !reflect.DeepEqual(once, thrice) {
		t.Errorf("-repeat 3 prints a different table than -repeat 1:\n%v\n%v", thrice, once)
	}
	for _, k := range models {
		if built[k] != 1 {
			t.Errorf("%s: base built %d times over 3 repeats, want 1", k, built[k])
		}
	}
}

// TestWriteFracCommitsExactShare pins the -write-frac schedule: over
// 1 000 update requests the committed share is within 1/1000 of the
// requested fraction for every fraction, not only the ones whose
// reciprocal is an integer (the old "every k-th" rounding committed 100 %
// at 0.7 and 0.9), and read-only queries never commit.
func TestWriteFracCommitsExactShare(t *testing.T) {
	const requests = 1000
	for _, f := range []float64{0, 0.1, 0.5, 0.7, 0.9, 1} {
		c := &servedClient{writeFrac: f}
		commits := 0
		for n := 0; n < requests; n++ {
			if c.decideCommit(cobench.Q3a) {
				commits++
			}
			if c.decideCommit(cobench.Q2b) {
				t.Fatalf("-write-frac %g: read-only query 2b chosen for commit", f)
			}
		}
		if share := float64(commits) / requests; math.Abs(share-f) > 1.0/requests {
			t.Errorf("-write-frac %g: committed %d of %d update requests (share %g)", f, commits, requests, share)
		}
	}
}
