package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"complexobj"
	"complexobj/cobench"
	"complexobj/internal/fanout"
)

// buildSnapshot writes a small .codb snapshot of every storage model.
func buildSnapshot(t *testing.T, n int) (string, cobench.Config) {
	t.Helper()
	gen := cobench.DefaultConfig().WithN(n)
	stations, err := cobench.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	var dbs []*complexobj.DB
	for _, k := range complexobj.AllModels() {
		db, err := complexobj.Open(k, complexobj.Options{BufferPages: 256})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Load(stations); err != nil {
			t.Fatal(err)
		}
		dbs = append(dbs, db)
	}
	path := filepath.Join(t.TempDir(), "serve.codb")
	if err := complexobj.WriteSnapshot(path, gen, dbs...); err != nil {
		t.Fatal(err)
	}
	for _, db := range dbs {
		db.Close()
	}
	return path, gen
}

// batchBaseline measures every (model, query) cell the way the batch
// tools do: a fresh snapshot view per model, serial DB.Run per query.
func batchBaseline(t *testing.T, path string, w cobench.Workload) map[AggKey]RunResponse {
	t.Helper()
	out := make(map[AggKey]RunResponse)
	for _, k := range complexobj.AllModels() {
		base, err := complexobj.OpenBase(path, k)
		if err != nil {
			t.Fatal(err)
		}
		db, err := base.Open(complexobj.Options{BufferPages: 256})
		base.Close() // the view holds its own reference
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range cobench.AllQueries() {
			res, err := db.Run(q, w)
			if err != nil {
				t.Fatal(err)
			}
			key := AggKey{Model: k.String(), Query: q.String(),
				Workload: WorkloadParams{Loops: w.Loops, Samples: w.Samples, Seed: w.Seed}}
			out[key] = RunResponse{
				Model:     res.Model.String(),
				Query:     res.Query.String(),
				Supported: res.Supported,
				Units:     res.Units,
				Workload:  key.Workload,
				Raw:       res.Raw,
				PerUnit:   res.PerUnit,
			}
		}
		db.Close()
	}
	return out
}

// getJSON fetches and decodes one endpoint.
func getJSON(t *testing.T, hc *http.Client, url string, v any) {
	t.Helper()
	resp, err := hc.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func runURL(base string, model, query string, w cobench.Workload) string {
	p := url.Values{}
	p.Set("model", model)
	p.Set("query", query)
	p.Set("loops", strconv.Itoa(w.Loops))
	p.Set("samples", strconv.Itoa(w.Samples))
	p.Set("seed", strconv.FormatUint(w.Seed, 10))
	return base + "/run?" + p.Encode()
}

// TestServerConcurrentClientsBitIdentical is the tentpole acceptance
// test: 8 concurrent clients hammer every (model, query) cell of a served
// snapshot, and every single response — each measured on its own pooled
// view with private counters — must be bit-identical to the serial batch
// run of the same cell. Run under -race in CI.
func TestServerConcurrentClientsBitIdentical(t *testing.T) {
	path, _ := buildSnapshot(t, 60)
	w := cobench.Workload{Loops: 15, Samples: 5, Seed: 1993}
	want := batchBaseline(t, path, w)

	srv, err := New(Config{Snapshot: path, BufferPages: 256, MaxViews: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	models := complexobj.AllModels()
	queries := cobench.AllQueries()
	const clients = 8
	err = fanout.Run(clients, clients, func(c int) error {
		hc := hs.Client()
		for i := range models {
			k := models[(i+c)%len(models)]
			for j := range queries {
				q := queries[(j+c)%len(queries)]
				var got RunResponse
				resp, err := hc.Get(runURL(hs.URL, k.String(), q.String(), w))
				if err != nil {
					return err
				}
				if resp.StatusCode != http.StatusOK {
					resp.Body.Close()
					return fmt.Errorf("client %d %s %s: %s", c, k, q, resp.Status)
				}
				if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
					resp.Body.Close()
					return err
				}
				resp.Body.Close()
				key := AggKey{Model: k.String(), Query: q.String(), Workload: got.Workload}
				exp, ok := want[key]
				if !ok {
					return fmt.Errorf("client %d: no baseline for %+v", c, key)
				}
				got.ElapsedUS = 0 // timing is the only nondeterministic field
				if !reflect.DeepEqual(got, exp) {
					return fmt.Errorf("client %d: served %s %s = %+v, want %+v", c, k, q, got, exp)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The aggregates must agree: every cell measured clients times, no
	// divergence, per-run counters equal to the batch baseline.
	var stats StatsResponse
	getJSON(t, hs.Client(), hs.URL+"/stats", &stats)
	if len(stats.Cells) != len(want) {
		t.Fatalf("/stats has %d cells, want %d", len(stats.Cells), len(want))
	}
	for _, cell := range stats.Cells {
		if cell.Count != clients {
			t.Errorf("%s %s: count %d, want %d", cell.Model, cell.Query, cell.Count, clients)
		}
		if cell.Divergent {
			t.Errorf("%s %s: flagged divergent — concurrent runs were not identical", cell.Model, cell.Query)
		}
		exp := want[cell.AggKey]
		if cell.Raw != exp.Raw || cell.PerUnit != exp.PerUnit || cell.Supported != exp.Supported {
			t.Errorf("%s %s: aggregate diverges from batch baseline", cell.Model, cell.Query)
		}
		wantSum := exp.Raw
		for i := 1; i < clients; i++ {
			wantSum.Add(exp.Raw)
		}
		if cell.RawSum != wantSum {
			t.Errorf("%s %s: raw sum %+v, want %d x %+v", cell.Model, cell.Query, cell.RawSum, clients, exp.Raw)
		}
	}

	// Pool accounting: views were bounded and recycled, the bases never
	// copied.
	var info InfoResponse
	getJSON(t, hs.Client(), hs.URL+"/info", &info)
	if len(info.Models) != len(models) {
		t.Fatalf("/info lists %d models, want %d", len(info.Models), len(models))
	}
	for _, pi := range info.Models {
		if pi.Created > int64(pi.MaxViews) {
			t.Errorf("%s: %d views created, bound is %d", pi.Model, pi.Created, pi.MaxViews)
		}
		if pi.Reused == 0 {
			t.Errorf("%s: views never reused", pi.Model)
		}
		if pi.InUse != 0 {
			t.Errorf("%s: %d views still in use after the drive", pi.Model, pi.InUse)
		}
	}
}

// TestServerRequestValidation pins the error surface: bad model/query/
// workload parameters are 400s, unsupported cells are 200s with
// supported=false (the batch tables print "-"), health answers.
func TestServerRequestValidation(t *testing.T) {
	path, _ := buildSnapshot(t, 30)
	srv, err := New(Config{Snapshot: path, BufferPages: 128, MaxViews: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	w := cobench.Workload{Loops: 5, Samples: 3, Seed: 1}

	for _, bad := range []string{
		"/run?model=nope&query=2b",
		"/run?model=dnsm&query=9z",
		"/run?model=dnsm&query=2b&loops=x",
		"/run?model=dnsm&query=2b&seed=-1",
	} {
		resp, err := hs.Client().Get(hs.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: %s, want 400", bad, resp.Status)
		}
	}

	var got RunResponse
	getJSON(t, hs.Client(), runURL(hs.URL, "NSM", "1a", w), &got)
	if got.Supported {
		t.Error("NSM 1a served as supported; the paper says it is not relevant")
	}

	resp, err := hs.Client().Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz: %s", resp.Status)
	}
}

// TestServerPeakRSS is the gated memory smoke for the acceptance bar:
// serving paper-scale concurrent traffic from mmap'ed snapshot bases must
// keep the process peak RSS within 2x the shared arenas' full size. Gated
// behind COMPLEXOBJ_RSS (and a pre-built COMPLEXOBJ_SNAPSHOT, so the
// load-phase RSS of building the snapshot never pollutes the measurement;
// CI builds it with cogen in a separate process).
func TestServerPeakRSS(t *testing.T) {
	if os.Getenv("COMPLEXOBJ_RSS") == "" {
		t.Skip("set COMPLEXOBJ_RSS=1 to measure peak RSS")
	}
	path := os.Getenv("COMPLEXOBJ_SNAPSHOT")
	if path == "" {
		t.Skip("set COMPLEXOBJ_SNAPSHOT to a cogen-built paper-scale snapshot")
	}
	// Run the way a memory-bounded deployment would. The shared bases are
	// mmap'ed and paid once; what RSS adds on top is (a) the retained per
	// view state — buffer pool and dirtied overlay pages, bounded by
	// admission control (MaxViews=1: one in-flight request per model,
	// i.e. five concurrent streams; the 8 driving clients queue on the
	// pools) — and (b) the GC's transient headroom for the whole-object
	// decode churn, bounded by a tighter GOGC plus a GOMEMLIMIT-style cap
	// on Go-owned memory. The concurrency acceptance (8 clients, larger
	// pools, bit-identical counters) lives in
	// TestServerConcurrentClientsBitIdentical; this test pins the memory
	// promise.
	defer debug.SetGCPercent(debug.SetGCPercent(25))
	srv, err := New(Config{Snapshot: path, BufferPages: 300, MaxViews: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	arena := srv.TotalArenaBytes()
	goLimit := int64(arena) - 16<<20
	if goLimit < 24<<20 {
		goLimit = 24 << 20
	}
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(goLimit))
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	w := cobench.Workload{Loops: 40, Samples: 10, Seed: 1993}
	models := complexobj.AllModels()
	queries := cobench.AllQueries()
	err = fanout.Run(8, 8, func(c int) error {
		hc := hs.Client()
		for i := range models {
			k := models[(i+c)%len(models)]
			for _, q := range queries {
				resp, err := hc.Get(runURL(hs.URL, k.String(), q.String(), w))
				if err != nil {
					return err
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					return fmt.Errorf("%s %s: %s", k, q, resp.Status)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	hwmKB, err := peakRSSKB()
	if err != nil {
		t.Skipf("peak RSS unavailable: %v", err)
	}
	limitKB := 2 * arena / 1024
	fmt.Printf("server-peak-rss-kb kb=%d arena-kb=%d limit-kb=%d\n", hwmKB, arena/1024, limitKB)
	if hwmKB > limitKB {
		t.Errorf("server peak RSS %d KiB exceeds 2x shared arenas (%d KiB)", hwmKB, limitKB)
	}
}

// TestDurableServerPeakRSS is TestServerPeakRSS's durable twin: a -wal
// server over a cogen-seeded commit directory (COMPLEXOBJ_WALDIR, seeded
// from COMPLEXOBJ_SNAPSHOT's extension in a separate process; the test
// commits into it) serves every cell, commits query 3a on every model and
// checkpoints once, within the same 2x budget over its bases' arenas.
// The seed maps each stored layout once, and every checkpoint streams
// each floor through its one mapping.
func TestDurableServerPeakRSS(t *testing.T) {
	if os.Getenv("COMPLEXOBJ_RSS") == "" {
		t.Skip("set COMPLEXOBJ_RSS=1 to measure peak RSS")
	}
	path, walDir := os.Getenv("COMPLEXOBJ_SNAPSHOT"), os.Getenv("COMPLEXOBJ_WALDIR")
	if path == "" || walDir == "" {
		t.Skip("set COMPLEXOBJ_SNAPSHOT and COMPLEXOBJ_WALDIR to a cogen-built paper-scale snapshot and seed")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(25))
	srv, err := New(Config{Snapshot: path, WALDir: walDir, BufferPages: 300, MaxViews: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	arena := srv.TotalArenaBytes()
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(max(int64(arena)-16<<20, 24<<20)))
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	w := cobench.Workload{Loops: 40, Samples: 10, Seed: 1993}
	models := complexobj.AllModels()
	err = fanout.Run(8, 8, func(c int) error {
		hc := hs.Client()
		for i := range models {
			k := models[(i+c)%len(models)]
			for _, q := range cobench.AllQueries() {
				u := runURL(hs.URL, k.String(), q.String(), w)
				if q == cobench.Q3a {
					u += "&commit=1"
				}
				resp, err := hc.Get(u)
				if err != nil {
					return err
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					return fmt.Errorf("%s %s: %s", k, q, resp.Status)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.clog.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	hwmKB, err := peakRSSKB()
	if err != nil {
		t.Skipf("peak RSS unavailable: %v", err)
	}
	limitKB := 2 * arena / 1024
	fmt.Printf("durable-server-peak-rss-kb kb=%d arena-kb=%d limit-kb=%d\n", hwmKB, arena/1024, limitKB)
	if hwmKB > limitKB {
		t.Errorf("durable server peak RSS %d KiB exceeds 2x its bases' arenas (%d KiB)", hwmKB, limitKB)
	}
}

// peakRSSKB reads VmHWM (the process peak resident set) in KiB.
func peakRSSKB() (int, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.Atoi(strings.TrimSpace(strings.TrimSuffix(rest, "kB")))
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
