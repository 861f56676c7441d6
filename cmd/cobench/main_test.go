package main

import (
	"bytes"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"complexobj"
	"complexobj/cobench"
	"complexobj/experiments"
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

// localArgs is a small local run's flags.
var localArgs = []string{"-n", "60", "-loops", "10", "-samples", "4", "-buffer", "64", "-workers", "3"}

// runArgs runs cobench with the given flags and returns what it prints.
func runArgs(t *testing.T, args ...string) (string, error) {
	t.Helper()
	fs := flag.NewFlagSet("cobench", flag.ContinueOnError)
	o := flags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run(o, &out, io.Discard)
	return out.String(), err
}

// TestRepeatBuildsEachBaseOnce pins the local measuring path: -repeat 3
// prints the table -repeat 1 prints, and a repeat is a view of the bases
// the suite built for the first run, not a rebuild — with the snapshot
// they were mapped from deleted after the first run, three more measure
// the same table. (That the suite builds three bases for the five models,
// once each, is experiments' TestMeasureBuildsEachBaseOnce.)
func TestRepeatBuildsEachBaseOnce(t *testing.T) {
	once, err := runArgs(t, localArgs...)
	if err != nil {
		t.Fatal(err)
	}
	thrice, err := runArgs(t, append(slices.Clone(localArgs), "-repeat", "3")...)
	if err != nil {
		t.Fatal(err)
	}
	if thrice != once {
		t.Errorf("-repeat 3 prints a different table than -repeat 1:\n%s\n%s", thrice, once)
	}

	// The flags' extension, stored in a snapshot.
	gen := cobench.DefaultConfig().WithN(60).WithMaxSeeing(15)
	gen.Seed = 1993
	path := filepath.Join(t.TempDir(), "bench.codb")
	var dbs []*complexobj.DB
	for _, k := range complexobj.AllModels() {
		db, err := complexobj.OpenLoaded(k, complexobj.Options{}, gen)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		dbs = append(dbs, db)
	}
	if err := complexobj.WriteSnapshot(path, gen, dbs...); err != nil {
		t.Fatal(err)
	}
	s := experiments.New(experiments.Config{
		Gen: gen, Workload: cobench.Workload{Loops: 10, Samples: 4, Seed: 1993},
		BufferPages: 64, Workers: 3, Snapshot: path,
	})
	defer s.Close()
	get, _ := metricFn("pages")
	first, err := measureLocal(s, complexobj.AllModels(), cobench.AllQueries(), 1, get)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	again, err := measureLocal(s, complexobj.AllModels(), cobench.AllQueries(), 3, get)
	if err != nil {
		t.Fatalf("a repeat reopened a base: %v", err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Errorf("repeats over the mapped bases differ:\n%v\n%v", again, first)
	}
	fresh := experiments.New(experiments.Config{
		Gen: gen, Workload: cobench.Workload{Loops: 10, Samples: 4, Seed: 1993}, BufferPages: 64, Workers: 3,
	})
	defer fresh.Close()
	want, err := measureLocal(fresh, complexobj.AllModels(), cobench.AllQueries(), 1, get)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, want) {
		t.Errorf("the mapped bases measure differently from loaded ones:\n%v\n%v", first, want)
	}
}

// TestServeURLRefusesDB: -db maps a snapshot under local engines, so with
// -serve-url, where the server maps its own, it is refused rather than
// checked and ignored.
func TestServeURLRefusesDB(t *testing.T) {
	_, err := runArgs(t, "-serve-url", "http://127.0.0.1:1", "-db", "absent.codb")
	if err == nil || !strings.Contains(err.Error(), "coserve -db") {
		t.Fatalf("-db with -serve-url: err = %v, want a refusal naming coserve -db", err)
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
