package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"complexobj"
	"complexobj/cobench"
	"complexobj/internal/fanout"
)

// mustPlan parses a fault schedule or fails the test.
func mustPlan(t *testing.T, spec string) *complexobj.FaultPlan {
	t.Helper()
	plan, err := complexobj.ParseFaultPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// getStatus fetches url and returns the status code and decoded JSON body.
func getStatus(t *testing.T, hc *http.Client, url string) (int, map[string]any) {
	t.Helper()
	resp, err := hc.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode, body
}

// TestServerAdmissionShed saturates the server-wide admission gate and
// checks graceful degradation end to end: queued requests shed with 503 +
// Retry-After once their deadline expires, /healthz flips to "degraded"
// (while staying HTTP 200 for liveness probes), the shed is visible in
// /info, and service resumes as soon as the gate drains.
func TestServerAdmissionShed(t *testing.T) {
	path, _ := buildSnapshot(t, 30)
	srv, err := New(Config{
		Snapshot:       path,
		BufferPages:    128,
		MaxViews:       1,
		MaxInflight:    2,
		RequestTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	hc := hs.Client()
	w := cobench.Workload{Loops: 5, Samples: 3, Seed: 1}

	// Fill the admission gate (the test owns the semaphore directly, so
	// the saturation is deterministic rather than raced by slow requests).
	srv.slots <- struct{}{}
	srv.slots <- struct{}{}

	code, health := getStatus(t, hc, hs.URL+"/healthz")
	if code != http.StatusOK {
		t.Errorf("/healthz while saturated: %d, want 200 (liveness must keep passing)", code)
	}
	if health["status"] != "degraded" {
		t.Errorf("/healthz status = %v, want degraded", health["status"])
	}

	resp, err := hc.Get(runURL(hs.URL, "DSM", "2b", w))
	if err != nil {
		t.Fatal(err)
	}
	var ebody map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&ebody); err != nil {
		t.Fatalf("shed response not JSON: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("run over a full gate: %s, want 503", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After; clients cannot back off politely")
	}
	if ebody["error"] == "" {
		t.Error("shed response carries no structured error")
	}
	if got := srv.shedAdmit.Load(); got != 1 {
		t.Errorf("shedAdmit = %d, want 1", got)
	}

	var info InfoResponse
	getJSON(t, hc, hs.URL+"/info", &info)
	if info.Resilience.MaxInflight != 2 || info.Resilience.ShedAdmission != 1 {
		t.Errorf("resilience info = %+v, want maxInflight 2, shedAdmission 1", info.Resilience)
	}
	if info.Resilience.RequestTimeoutMS != 50 {
		t.Errorf("requestTimeoutMillis = %d, want 50", info.Resilience.RequestTimeoutMS)
	}

	// Drain the gate: health recovers and the same request now serves.
	<-srv.slots
	<-srv.slots
	if code, health = getStatus(t, hc, hs.URL+"/healthz"); health["status"] != "ok" {
		t.Errorf("/healthz after drain = %d %v, want ok", code, health)
	}
	var got RunResponse
	getJSON(t, hc, runURL(hs.URL, "DSM", "2b", w), &got)
	if !got.Supported || got.Raw == (Counters{}) {
		t.Errorf("post-drain run did not measure: %+v", got)
	}
}

// TestServerDeadlineShed pins the per-request deadline: a timeout too
// short to finish any measurement sheds the request with 503 +
// Retry-After and counts it, and a deadlined run reports no counters at
// all — never a truncated measurement.
func TestServerDeadlineShed(t *testing.T) {
	path, _ := buildSnapshot(t, 30)
	srv, err := New(Config{
		Snapshot:       path,
		BufferPages:    128,
		MaxViews:       1,
		MaxInflight:    -1, // unbounded: the deadline, not admission, must shed
		RequestTimeout: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	w := cobench.Workload{Loops: 5, Samples: 3, Seed: 1}

	resp, err := hs.Client().Get(runURL(hs.URL, "DSM", "2b", w))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("run under 1ns deadline: %s, want 503", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("deadline shed without Retry-After")
	}
	if got := srv.shedDeadline.Load(); got == 0 {
		t.Error("shedDeadline not counted")
	}
	var stats StatsResponse
	getJSON(t, hs.Client(), hs.URL+"/stats", &stats)
	if len(stats.Cells) != 0 || stats.Requests != 0 {
		t.Errorf("deadlined request leaked a measurement: %+v", stats)
	}
}

// TestServerPanicQuarantine arms an injected-panic schedule and checks
// containment: a panicking query path becomes a structured 500, the
// damaged view is quarantined (never recycled), the counters surface in
// /healthz and /info, and later requests on fresh views still measure
// bit-identical to a fault-free baseline. The schedule is deterministic:
// seed 21 panics the first DSM 2b request and spares later view streams.
func TestServerPanicQuarantine(t *testing.T) {
	path, _ := buildSnapshot(t, 30)
	w := cobench.Workload{Loops: 5, Samples: 3, Seed: 1}
	want := batchBaseline(t, path, w)
	wantKey := AggKey{Model: "DSM", Query: "2b",
		Workload: WorkloadParams{Loops: w.Loops, Samples: w.Samples, Seed: w.Seed}}

	srv, err := New(Config{
		Snapshot:    path,
		BufferPages: 128,
		MaxViews:    2,
		Faults:      mustPlan(t, "seed=21,panic=0.002"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	hc := hs.Client()

	panics, successes := 0, 0
	for i := 0; i < 40 && (panics == 0 || successes == 0); i++ {
		resp, err := hc.Get(runURL(hs.URL, "DSM", "2b", w))
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var got RunResponse
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				t.Fatal(err)
			}
			got.ElapsedUS = 0
			if !reflect.DeepEqual(got, want[wantKey]) {
				t.Fatalf("request %d: survived response diverged:\n got %+v\nwant %+v",
					i, got, want[wantKey])
			}
			successes++
		case http.StatusInternalServerError:
			var ebody map[string]string
			if err := json.NewDecoder(resp.Body).Decode(&ebody); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(ebody["error"], "panic") {
				t.Fatalf("request %d: 500 without a panic report: %q", i, ebody["error"])
			}
			panics++
		default:
			t.Fatalf("request %d: unexpected %s", i, resp.Status)
		}
		resp.Body.Close()
	}
	if panics == 0 {
		t.Fatal("schedule never panicked; the containment pin is vacuous")
	}
	if successes == 0 {
		t.Fatal("no request survived; cannot pin post-panic recovery")
	}

	code, health := getStatus(t, hc, hs.URL+"/healthz")
	if code != http.StatusOK {
		t.Errorf("/healthz after panics: %d, want 200", code)
	}
	if health["panics"].(float64) < 1 || health["quarantinedViews"].(float64) < 1 {
		t.Errorf("/healthz does not report the damage: %v", health)
	}

	var info InfoResponse
	getJSON(t, hc, hs.URL+"/info", &info)
	if info.Resilience.Panics != int64(panics) {
		t.Errorf("resilience panics = %d, want %d", info.Resilience.Panics, panics)
	}
	if info.Resilience.QuarantinedViews < 1 {
		t.Error("no view quarantined after a contained panic")
	}
	if info.Resilience.FaultSpec == "" || info.Resilience.Faults == nil {
		t.Errorf("armed fault plan invisible in /info: %+v", info.Resilience)
	}
	if info.Resilience.Faults.Panics < int64(panics) {
		t.Errorf("fault stats count %d panics, handler saw %d",
			info.Resilience.Faults.Panics, panics)
	}
	for _, pi := range info.Models {
		if pi.InUse != 0 {
			t.Errorf("%s: %d views still in use after the drive", pi.Model, pi.InUse)
		}
	}
}

// TestServerInfoResilienceUnarmed: without -faults the resilience block
// must not claim a schedule.
func TestServerInfoResilienceUnarmed(t *testing.T) {
	path, _ := buildSnapshot(t, 30)
	srv, err := New(Config{Snapshot: path, BufferPages: 128, MaxViews: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	var info InfoResponse
	getJSON(t, hs.Client(), hs.URL+"/info", &info)
	if info.Resilience.FaultSpec != "" || info.Resilience.Faults != nil {
		t.Errorf("fault-free server advertises a schedule: %+v", info.Resilience)
	}
	if info.Resilience.MaxInflight != 2*1*len(info.Models) {
		t.Errorf("defaulted maxInflight = %d, want %d (2 x MaxViews x models)",
			info.Resilience.MaxInflight, 2*len(info.Models))
	}
}

// TestServerChaosSoak is the resilience acceptance test: concurrent
// clients hammer every (model, query) cell of a served snapshot while a
// transient fault schedule (dropped reads, short reads, injected latency)
// runs underneath. Every 2xx response must be bit-identical to the
// fault-free batch baseline — the device retry absorbs the faults below
// the counters — every failure must be a structured 5xx, the aggregates
// must show zero divergent cells, and the pools must return to steady
// state. COMPLEXOBJ_CHAOS_ROUNDS extends the soak (CI's chaos job runs
// the same contract for minutes via cobench -serve-url).
func TestServerChaosSoak(t *testing.T) {
	rounds := 1
	if env := os.Getenv("COMPLEXOBJ_CHAOS_ROUNDS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n < 1 {
			t.Fatalf("COMPLEXOBJ_CHAOS_ROUNDS=%q: want a positive integer", env)
		}
		rounds = n
	}

	path, _ := buildSnapshot(t, 60)
	w := cobench.Workload{Loops: 10, Samples: 5, Seed: 1993}
	want := batchBaseline(t, path, w)

	plan := mustPlan(t, "seed=2026,read=0.03,short=0.01,latency=0.05:100us")
	srv, err := New(Config{
		Snapshot:       path,
		BufferPages:    256,
		MaxViews:       3,
		MaxInflight:    10,
		RequestTimeout: 30 * time.Second,
		Faults:         plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	models := complexobj.AllModels()
	queries := cobench.AllQueries()
	const clients = 8
	var ok2xx, failed atomic.Int64
	err = fanout.Run(clients, clients, func(c int) error {
		hc := hs.Client()
		for r := 0; r < rounds; r++ {
			for i := range models {
				k := models[(i+c)%len(models)]
				for j := range queries {
					q := queries[(j+c+r)%len(queries)]
					resp, err := hc.Get(runURL(hs.URL, k.String(), q.String(), w))
					if err != nil {
						return err
					}
					if resp.StatusCode != http.StatusOK {
						// Failures are allowed under chaos — but only
						// clean, structured ones.
						var ebody map[string]string
						if err := json.NewDecoder(resp.Body).Decode(&ebody); err != nil {
							resp.Body.Close()
							return fmt.Errorf("%s %s: %s with undecodable body: %v", k, q, resp.Status, err)
						}
						resp.Body.Close()
						if resp.StatusCode != http.StatusServiceUnavailable &&
							resp.StatusCode != http.StatusInternalServerError {
							return fmt.Errorf("%s %s: unexpected %s (%s)", k, q, resp.Status, ebody["error"])
						}
						if ebody["error"] == "" {
							return fmt.Errorf("%s %s: %s without a structured error", k, q, resp.Status)
						}
						failed.Add(1)
						continue
					}
					var got RunResponse
					if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
						resp.Body.Close()
						return err
					}
					resp.Body.Close()
					key := AggKey{Model: k.String(), Query: q.String(), Workload: got.Workload}
					exp, okk := want[key]
					if !okk {
						return fmt.Errorf("no baseline for %+v", key)
					}
					got.ElapsedUS = 0
					if !reflect.DeepEqual(got, exp) {
						return fmt.Errorf("chaos diverged on %s %s:\n got %+v\nwant %+v", k, q, got, exp)
					}
					ok2xx.Add(1)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok2xx.Load() == 0 {
		t.Fatal("no request succeeded under the chaos schedule")
	}

	// The aggregates agree with the baseline cell by cell: nothing the
	// fault schedule did may reach a paper-visible counter.
	var stats StatsResponse
	getJSON(t, hs.Client(), hs.URL+"/stats", &stats)
	for _, cell := range stats.Cells {
		if cell.Divergent {
			t.Errorf("%s %s: divergent under chaos", cell.Model, cell.Query)
		}
		exp := want[cell.AggKey]
		if cell.Raw != exp.Raw || cell.PerUnit != exp.PerUnit || cell.Supported != exp.Supported {
			t.Errorf("%s %s: aggregate diverges from fault-free baseline", cell.Model, cell.Query)
		}
	}

	// Steady state: nothing in flight, nothing leaked, the schedule
	// actually fired.
	var info InfoResponse
	getJSON(t, hs.Client(), hs.URL+"/info", &info)
	if info.Resilience.InFlight != 0 {
		t.Errorf("%d requests still in flight after the soak", info.Resilience.InFlight)
	}
	for _, pi := range info.Models {
		if pi.InUse != 0 {
			t.Errorf("%s: %d views still in use after the soak", pi.Model, pi.InUse)
		}
		if int64(pi.MaxViews) < pi.Created-pi.Destroyed {
			t.Errorf("%s: %d live views exceed the bound %d", pi.Model, pi.Created-pi.Destroyed, pi.MaxViews)
		}
	}
	fs := plan.Stats()
	if fs.Injected() == 0 && fs.Delays == 0 {
		t.Error("chaos schedule injected nothing; the soak is vacuous")
	}
	t.Logf("chaos soak: %d ok, %d shed/failed, faults %+v", ok2xx.Load(), failed.Load(), fs)
}
