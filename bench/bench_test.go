package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// fakeReference plays back a fixed sequence of host-speed factors.
type fakeReference struct {
	factors []float64
	next    int
}

func (f *fakeReference) burst() (float64, error) {
	v := f.factors[f.next%len(f.factors)]
	f.next++
	return v, nil
}

func (f *fakeReference) close() error { return nil }

func TestReferenceClockArithmetic(t *testing.T) {
	// Two rounds of 5 ops. The host runs at half the nominal speed around
	// the first round and at nominal speed around the second, and the
	// first round duly takes twice as long: on the reference clock both
	// rounds are the same.
	m := &measured{
		rounds: []roundStats{
			{Ops: 5, WallS: 2, CPUS: 4, Host: 0.5},
			{Ops: 5, WallS: 1, CPUS: 2, Host: 1},
		},
		latencies: []int64{2e6, 2e6, 4e6, 4e6, 18e6, 1e6, 1e6, 2e6, 2e6, 2e6},
		setupS:    []float64{3, 1, 2},
		allocKB:   200,
		mallocs:   30,
	}
	gated, timing := m.gated(), m.timings(true)
	wantGated := map[string]float64{
		"setup_s":         1, // the fastest of the three
		"alloc_kb_per_op": 20,
		"mallocs_per_op":  3,
	}
	wantTiming := map[string]timingValue{
		"ops_per_s":     {Ref: 5, Wall: 10. / 3}, // 10 ops in 2·0.5 + 1·1 = 2 reference seconds, 3 wall seconds
		"cpu_ms_per_op": {Ref: 400, Wall: 600},
		// Nearest rank 5 of 10; the first round's latencies count half on
		// the reference clock. Ten samples carry no tail beyond the median.
		"lat_p50_ms": {Ref: 2, Wall: 2},
	}
	if !reflect.DeepEqual(gated, wantGated) || !reflect.DeepEqual(timing, wantTiming) {
		t.Fatalf("gated, timings = %v, %v; want %v, %v", gated, timing, wantGated, wantTiming)
	}
	if timing = m.timings(false); len(timing) != 2 {
		t.Fatalf("timings without latencies = %v, want ops_per_s and cpu_ms_per_op only", timing)
	}
	if got := roundSpread(m.rounds, func(r roundStats) float64 { return r.WallS }); got != 2 {
		t.Fatalf("roundSpread = %v, want 2", got)
	}

	// timedRounds puts each round on the clock of its two neighbouring
	// bursts and keeps the latencies as the wall clock read them.
	m = &measured{}
	ref := &fakeReference{factors: []float64{1, 0.5, 0.5}}
	err := m.timedRounds(2, 0, ref, func(first, n int, lat []int64) roundStats {
		for i := range lat[:n] {
			lat[i] = int64(1000 * (first + i))
		}
		return roundStats{Ops: n, WallS: 1, OpsPerS: float64(n)}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.rounds) != 2 || m.rounds[0].Host != 0.75 || m.rounds[1].Host != 0.5 {
		t.Fatalf("rounds = %+v, want host factors 0.75 and 0.5", m.rounds)
	}
	if want := []int64{2000, 3000, 4000, 5000}; !reflect.DeepEqual(m.latencies, want) {
		t.Fatalf("latencies = %v, want %v", m.latencies, want)
	}
	if m.attempted != 6 { // warm-up round included
		t.Fatalf("attempted = %d, want 6", m.attempted)
	}

	// A set-up is timed between two bursts of its own.
	ref = &fakeReference{factors: []float64{0.5, 1.5}}
	if err := m.timedSetup(ref, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if m.setupS[0] != m.setupRaw[0] || ref.next != 2 {
		t.Fatalf("set-up on the reference clock = %v, wall %v, %d bursts", m.setupS[0], m.setupRaw[0], ref.next)
	}
}

func TestTwinMeasuresAPositiveFactor(t *testing.T) {
	tw, err := newTwin(5 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	f, err := tw.burst()
	if err != nil || !(f > 0) || math.IsInf(f, 0) {
		t.Fatalf("burst = %v, %v", f, err)
	}
	if err := tw.close(); err != nil {
		t.Fatal(err)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n, pct int
		want   bool
	}{
		{2, 50, true}, {99, 90, false}, {100, 90, true}, {999, 99, false}, {1000, 99, true}, {40000, 99, true},
	} {
		if got := carries(c.n, c.pct); got != c.want {
			t.Errorf("carries(%d, p%d) = %v, want %v", c.n, c.pct, got, c.want)
		}
	}
}

func TestPercentileSortedNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		pct  int
		want int64
	}{{50, 50}, {90, 90}, {99, 100}, {0, 10}, {100, 100}} {
		if got := percentileSorted(s, c.pct); got != c.want {
			t.Errorf("percentileSorted(p%d) = %d, want %d", c.pct, got, c.want)
		}
	}
	if got := percentileSorted([]int64{7, 9}, 50); got != 7 {
		t.Errorf("median of two by nearest rank = %d, want the lower, 7", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q3 != 4 {
		t.Fatalf("quartiles = %v, %v; want 1, 4", q1, q3)
	}
	if got := spread([]float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7}); got != 1 {
		t.Fatalf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	// A hand-built op: the HTTP span holds the handler span, which holds
	// three calls, two of them overlapping and one poking out of its
	// parent.
	spans := []span{
		{ID: 1, Parent: 0, Op: 7, Name: "http.client_do", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 7, Name: "server.serve_http", Start: 20, End: 80},
		{ID: 3, Parent: 2, Op: 7, Name: "viewpool.acquire", Start: 25, End: 35},
		{ID: 4, Parent: 2, Op: 7, Name: "workload.run", Start: 30, End: 60},     // overlaps 3 by 5
		{ID: 5, Parent: 2, Op: 7, Name: "viewpool.release", Start: 70, End: 90}, // 10 outside parent
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - 60,            // minus the handler
		2: 60 - (10 + 25 + 10), // union of 25..60 and 70..80
		3: 10, 4: 30, 5: 20,
	}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("selfTimes = %v, want %v", self, want)
	}

	// rebase nests an execution measured later inside its parent.
	tr := &tracer{}
	parent := tr.add("http.client_do", 0, 1, 1000, 1100)
	kid := tr.rebase("server.serve_http", parent, 1, 20, 60)
	if got := tr.spans[kid-1]; got.Start != 1020 || got.End != 1080 || got.Parent != parent {
		t.Fatalf("rebased span = %+v", got)
	}
	if got := selfTimes(tr.spans)[parent]; got != 40 {
		t.Fatalf("self time of re-based parent = %d, want 40", got)
	}
}

func TestPerCellMean(t *testing.T) {
	// Median within a cell shrugs off the outlier; cells weigh the same.
	got := perCellMean(map[int][]float64{0: {10, 11, 500}, 1: {30, 31, 29}})
	if got != (11+30)/2.0 {
		t.Fatalf("perCellMean = %v, want 20.5", got)
	}
}

func TestOpSequenceDependsOnlyOnSeed(t *testing.T) {
	for _, def := range workloads() {
		if len(def.Cells) == 0 {
			continue
		}
		a, _ := newOpSequence(1993, len(def.Cells), nil)
		b, _ := newOpSequence(1993, len(def.Cells), nil)
		c, _ := newOpSequence(1994, len(def.Cells), nil)
		if a.hash(4096) != b.hash(4096) {
			t.Errorf("%s: same seed, different op sequence", def.Name)
		}
		if a.hash(4096) == c.hash(4096) {
			t.Errorf("%s: different seed, same op sequence", def.Name)
		}
		// Cells cycle in order, and cells × seeds fits the /stats cap.
		for i := 0; i < 3*len(def.Cells); i++ {
			if got := a.at(i).Cell; got != i%len(def.Cells) {
				t.Fatalf("%s: op %d hits cell %d", def.Name, i, got)
			}
		}
		if n := (len(def.Cells) + 1) * seedPool; n > 4096 {
			t.Errorf("%s: %d distinct /stats cells exceed the server's 4096-cell cap", def.Name, n)
		}
	}
}

// benchmarkFile is the shape of /BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// TestBenchmarkFileMatchesSpec keeps /BENCHMARK.json and the tables in
// spec.go and ops.go identical.
func TestBenchmarkFileMatchesSpec(t *testing.T) {
	f := readBenchmarkFile(t)
	if !reflect.DeepEqual(f.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", f.RunSeconds)
	}
	defs := workloads()
	if len(f.Workloads) != len(defs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in ops.go", len(f.Workloads), len(defs))
	}
	for i, w := range f.Workloads {
		if w.Name != defs[i].Name || w.Why != defs[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q/%q, ops.go has %q/%q", i, w.Name, w.Why, defs[i].Name, defs[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in spec.go", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		if want := endToEnd[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, spec.go has %+v", i, m, want)
		}
		// No bound above a tenth; setup_s alone, which the driver's
		// contract requires and wants given the largest bound, may go up
		// to the contract's cap.
		limit := 0.10
		if m.Name == "setup_s" {
			limit = 0.25
		}
		if m.Bound <= 0 || m.Bound > limit {
			t.Errorf("end_to_end %s: bound %v outside (0, %v]", m.Name, m.Bound, limit)
		}
	}
	if len(f.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in spec.go (at most 128)", len(f.PerLayer), len(perLayer))
	}
	seen := make(map[string]bool)
	for i, m := range f.PerLayer {
		if want := perLayer[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, spec.go has %+v", i, m, want)
		}
		seen[m.Name] = true
	}
	for _, m := range f.EndToEnd {
		if seen[m.Name] {
			t.Errorf("metric name %s used twice", m.Name)
		}
		seen[m.Name] = true
	}
	if len(seen) != len(endToEnd)+len(perLayer) {
		t.Errorf("%d distinct metric names for %d metrics", len(seen), len(endToEnd)+len(perLayer))
	}
}

// TestSmokeAllWorkloads runs every workload, measured and traced, through
// the code path of a real run with tiny op counts, and requires every
// metric BENCHMARK.json names — with its unit — and no failed op.
func TestSmokeAllWorkloads(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range f.Workloads {
		def, ok := workloadByName(w.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %s", w.Name)
		}
		for _, traced := range []bool{false, true} {
			cfg := runConfig{
				Workload: w.Name, Seed: 7, Seconds: 0.05, Trace: traced,
				WorkDir: t.TempDir(), OutDir: t.TempDir(), Scale: 0.02, Setups: 1, Objects: 150, Loops: 30,
				NewReference: func() (reference, error) { return newTwin(2 * time.Millisecond) },
			}
			var res resultLine
			var err error
			want := map[string]string{}
			if traced {
				res, err = runTraced(cfg, def)
				for _, m := range f.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				res, err = runMeasured(cfg, def)
				for _, m := range f.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s not emitted", w.Name, traced, name)
				} else if m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s has unit %q, want %q", w.Name, traced, name, m.Unit, unit)
				}
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, name, m.Value)
				}
			}
			// The ungated throughput is there on both clocks either way.
			if traced {
				if ref, wall := res.Metrics["run.ops_per_s"].Value, res.Metrics["run.ops_per_s_wall"].Value; !(ref > 0) || !(wall > 0) {
					t.Errorf("%s: run.ops_per_s = %v, run.ops_per_s_wall = %v, must be positive", w.Name, ref, wall)
				}
			}
			file := "detail-" + w.Name + ".json"
			if traced {
				file = "trace-" + w.Name + ".json"
			}
			data, err := os.ReadFile(filepath.Join(cfg.OutDir, file))
			if err != nil {
				t.Errorf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !traced {
				var d detail
				if err := json.Unmarshal(data, &d); err != nil {
					t.Fatalf("%s: %s: %v", w.Name, file, err)
				}
				if v := d.Timings["ops_per_s"]; !(v.Ref > 0) || !(v.Wall > 0) {
					t.Errorf("%s: %s: ungated ops_per_s = %+v, must be positive on both clocks", w.Name, file, v)
				}
				if _, ok := d.Timings["lat_p50_ms"]; ok != (def.Clients > 1) {
					t.Errorf("%s: %s: latency reported = %v with %d client(s)", w.Name, file, ok, def.Clients)
				}
			}
		}
	}
}
