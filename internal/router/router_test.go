package router

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"complexobj"
	"complexobj/cobench"
	"complexobj/internal/fanout"
	"complexobj/internal/server"
	"complexobj/internal/shard"
)

// buildSplit writes a small snapshot, splits it into n range shards and
// returns (snapshot path, map path, the loaded map).
func buildSplit(t *testing.T, stations int, n int) (string, string, *shard.Map) {
	t.Helper()
	gen := cobench.DefaultConfig().WithN(stations)
	objs, err := cobench.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	var dbs []*complexobj.DB
	for _, k := range complexobj.AllModels() {
		db, err := complexobj.Open(k, complexobj.Options{BufferPages: 256})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Load(objs); err != nil {
			t.Fatal(err)
		}
		dbs = append(dbs, db)
	}
	path := filepath.Join(t.TempDir(), "route.codb")
	if err := complexobj.WriteSnapshot(path, gen, dbs...); err != nil {
		t.Fatal(err)
	}
	for _, db := range dbs {
		db.Close()
	}

	info, err := complexobj.StatSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(info.Models))
	byName := make(map[string]complexobj.ModelKind)
	for i, k := range info.Models {
		names[i] = k.String()
		byName[k.String()] = k
	}
	m, err := shard.Partition(names, n, shard.StrategyRange)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Shards {
		s := &m.Shards[i]
		if len(s.Models) == 0 {
			continue
		}
		kinds := make([]complexobj.ModelKind, len(s.Models))
		for j, name := range s.Models {
			kinds[j] = byName[name]
		}
		seg := shard.SegmentName(path, s.ID)
		if err := complexobj.ExtractSnapshot(path, seg, kinds); err != nil {
			t.Fatal(err)
		}
		s.Segment = filepath.Base(seg)
	}
	mapPath := shard.MapName(path)
	if err := m.Write(mapPath); err != nil {
		t.Fatal(err)
	}
	return path, mapPath, m
}

// backendFixture is one live coserve-equivalent backend.
type backendFixture struct {
	srv *server.Server
	hs  *httptest.Server
}

func startBackend(t *testing.T, mapPath string, shards []int) *backendFixture {
	t.Helper()
	srv, err := server.New(server.Config{ShardMap: mapPath, Shards: shards, BufferPages: 256, MaxViews: 4})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return &backendFixture{srv: srv, hs: hs}
}

func startRouter(t *testing.T, mapPath string, backends []string) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := New(Config{MapPath: mapPath, Backends: backends, Retries: 4, RetryBackoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { hs.Close(); rt.Close() })
	return rt, hs
}

func runURL(base, model, query string, w cobench.Workload) string {
	p := url.Values{}
	p.Set("model", model)
	p.Set("query", query)
	p.Set("loops", strconv.Itoa(w.Loops))
	p.Set("samples", strconv.Itoa(w.Samples))
	p.Set("seed", strconv.FormatUint(w.Seed, 10))
	return base + "/run?" + p.Encode()
}

func getJSONT(t *testing.T, hc *http.Client, url string, v any) {
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

// driveAll issues `rounds` requests for every (model, query) cell through
// hc against base, with `clients` concurrent workers, failing on any
// non-200.
func driveAll(t *testing.T, hc *http.Client, base string, w cobench.Workload, rounds, clients int) {
	t.Helper()
	models := complexobj.AllModels()
	queries := cobench.AllQueries()
	type job struct{ m, q string }
	var jobs []job
	for r := 0; r < rounds; r++ {
		for _, k := range models {
			for _, q := range queries {
				jobs = append(jobs, job{k.String(), q.String()})
			}
		}
	}
	err := fanout.Run(len(jobs), clients, func(i int) error {
		resp, err := hc.Get(runURL(base, jobs[i].m, jobs[i].q, w))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s %s: %s", jobs[i].m, jobs[i].q, resp.Status)
		}
		var rr server.RunResponse
		return json.NewDecoder(resp.Body).Decode(&rr)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// stripTiming zeroes the wall-clock fields of a stats payload so two
// deployments can be compared bit-for-bit on counters alone.
func stripTiming(sr *server.StatsResponse) {
	sr.UptimeSeconds = 0
	for i := range sr.Cells {
		sr.Cells[i].MeanUS = 0
		sr.Cells[i].MaxUS = 0
	}
}

// TestScatterGatherMatchesSingleNode is the tentpole acceptance test at
// test scale: the same workload driven through a 2-backend sharded
// deployment and through one unsharded node must produce bit-identical
// aggregate /stats counter cells (timing stripped) — sharding lives
// outside the counted I/O.
func TestScatterGatherMatchesSingleNode(t *testing.T) {
	path, mapPath, smap := buildSplit(t, 60, 2)
	w := cobench.Workload{Loops: 10, Samples: 4, Seed: 1993}

	b0 := startBackend(t, mapPath, []int{0})
	b1 := startBackend(t, mapPath, []int{1})
	_, rhs := startRouter(t, mapPath, []string{b0.hs.URL, b1.hs.URL})

	single, err := server.New(server.Config{Snapshot: path, BufferPages: 256, MaxViews: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	shs := httptest.NewServer(single.Handler())
	defer shs.Close()

	hc := &http.Client{Timeout: 60 * time.Second}
	const rounds, clients = 3, 8
	driveAll(t, hc, rhs.URL, w, rounds, clients)
	driveAll(t, hc, shs.URL, w, rounds, clients)

	var routed, alone server.StatsResponse
	getJSONT(t, hc, rhs.URL+"/stats", &routed)
	getJSONT(t, hc, shs.URL+"/stats", &alone)
	stripTiming(&routed)
	stripTiming(&alone)
	if routed.Requests != alone.Requests {
		t.Errorf("routed %d requests, single node %d", routed.Requests, alone.Requests)
	}
	if !reflect.DeepEqual(routed.Cells, alone.Cells) {
		t.Errorf("aggregate cells diverge:\nrouted: %+v\nsingle: %+v", routed.Cells, alone.Cells)
	}
	for _, c := range routed.Cells {
		if c.Divergent {
			t.Errorf("%s %s: routed cell flagged divergent", c.Model, c.Query)
		}
	}

	// /info re-speaks the single-node shape: same identity, all models.
	var rinfo, sinfo server.InfoResponse
	getJSONT(t, hc, rhs.URL+"/info", &rinfo)
	getJSONT(t, hc, shs.URL+"/info", &sinfo)
	if rinfo.Gen != sinfo.Gen || rinfo.PageSize != sinfo.PageSize || rinfo.BufferPages != sinfo.BufferPages {
		t.Errorf("router identity (gen %+v, page %d, buffer %d) != single node (%+v, %d, %d)",
			rinfo.Gen, rinfo.PageSize, rinfo.BufferPages, sinfo.Gen, sinfo.PageSize, sinfo.BufferPages)
	}
	if len(rinfo.Models) != len(complexobj.AllModels()) {
		t.Errorf("router /info lists %d models, want %d", len(rinfo.Models), len(complexobj.AllModels()))
	}
	if rinfo.Sharding == nil || len(rinfo.Sharding.Shards) != 2 {
		t.Errorf("router /info sharding block %+v, want 2 shards", rinfo.Sharding)
	}

	var health RouterHealth
	getJSONT(t, hc, rhs.URL+"/healthz", &health)
	if health.Status != "ok" || len(health.Backends) != 2 {
		t.Errorf("router health %+v, want ok over 2 backends", health)
	}

	// Connection pooling: far fewer dials than requests.
	dials := scrapeMetric(t, hc, rhs.URL, "coshard_dials_total")
	requests := scrapeMetric(t, hc, rhs.URL, "coshard_requests_total")
	if requests < float64(rounds*len(complexobj.AllModels())*len(cobench.AllQueries())) {
		t.Errorf("router counted %v requests, want >= %d", requests, rounds*35)
	}
	if dials > requests/2 {
		t.Errorf("%v dials for %v requests — keep-alive pooling is not reusing connections", dials, requests)
	}

	// Handoff window: shard 0 moves to b1 without b0 releasing it, so from
	// here on the shard's cells carry runs on two backends — 3 rounds on
	// b0, 1 on b1 — and the router's merge has to fold them (counts and
	// sums add, nothing diverges) into what one node aggregates over the
	// same 4 rounds.
	if _, err := b1.srv.AcquireShard(0, ""); err != nil {
		t.Fatal(err)
	}
	resp, err := hc.Post(rhs.URL+"/map/assign?shard=0&backend="+url.QueryEscape(b1.hs.URL), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("assign shard 0 to b1: %s", resp.Status)
	}
	driveAll(t, hc, rhs.URL, w, 1, clients)
	driveAll(t, hc, shs.URL, w, 1, clients)
	var b0stats, b1stats server.StatsResponse
	getJSONT(t, hc, b0.hs.URL+"/stats", &b0stats)
	getJSONT(t, hc, b1.hs.URL+"/stats", &b1stats)
	getJSONT(t, hc, rhs.URL+"/stats", &routed)
	getJSONT(t, hc, shs.URL+"/stats", &alone)
	for _, c := range routed.Cells {
		// The merged maximum is the larger of the two owners' maxima.
		var wantMax int64
		for _, sr := range []server.StatsResponse{b0stats, b1stats} {
			for _, bc := range sr.Cells {
				if bc.AggKey == c.AggKey && bc.MaxUS > wantMax {
					wantMax = bc.MaxUS
				}
			}
		}
		if c.MaxUS != wantMax {
			t.Errorf("%s %s: merged maxMicros %d, want %d", c.Model, c.Query, c.MaxUS, wantMax)
		}
	}
	stripTiming(&routed)
	stripTiming(&alone)
	if len(b0stats.Cells) == 0 || len(b0stats.Cells)+len(b1stats.Cells) <= len(routed.Cells) {
		t.Fatalf("no cell lives on both backends (b0 %d + b1 %d cells, merged %d): the handoff window was not exercised",
			len(b0stats.Cells), len(b1stats.Cells), len(routed.Cells))
	}
	if routed.Requests != alone.Requests {
		t.Errorf("after handoff: routed %d requests, single node %d", routed.Requests, alone.Requests)
	}
	if !reflect.DeepEqual(routed.Cells, alone.Cells) {
		t.Errorf("after handoff: aggregate cells diverge:\nrouted: %+v\nsingle: %+v", routed.Cells, alone.Cells)
	}

	// Two backends that measure one cell differently — here the same
	// segment under a much smaller buffer pool — must merge into a cell
	// flagged divergent, exactly as a single node flags a run that broke
	// determinism.
	small, err := server.New(server.Config{ShardMap: mapPath, Shards: []int{0}, BufferPages: 8, MaxViews: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	smallHS := httptest.NewServer(small.Handler())
	defer smallHS.Close()
	_, rhs2 := startRouter(t, mapPath, []string{b0.hs.URL, smallHS.URL})
	sh0, _ := smap.Shard(0)
	var rr server.RunResponse
	getJSONT(t, hc, runURL(smallHS.URL, sh0.Models[0], "2b", w), &rr)
	var mixed server.StatsResponse
	getJSONT(t, hc, rhs2.URL+"/stats", &mixed)
	found := false
	for _, c := range mixed.Cells {
		if c.Model == rr.Model && c.Query == rr.Query {
			found = true
			if !c.Divergent {
				t.Errorf("%s %s measured with 256 and with 8 buffer pages merged without the divergent flag: %+v", c.Model, c.Query, c)
			}
			if c.Count != rounds+1 {
				t.Errorf("%s %s: merged count %d, want %d", c.Model, c.Query, c.Count, rounds+1)
			}
		} else if c.Divergent {
			t.Errorf("%s %s: flagged divergent though only one backend measured it differently", c.Model, c.Query)
		}
	}
	if !found {
		t.Errorf("cell %s %s missing from the merged /stats", rr.Model, rr.Query)
	}
}

// scrapeMetric reads one unlabeled sample from a /metrics endpoint.
func scrapeMetric(t *testing.T, hc *http.Client, base, name string) float64 {
	t.Helper()
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	t.Fatalf("no %s in /metrics", name)
	return 0
}

// TestRebalanceLosesNoRequests moves shard 0 between two live backends in
// the middle of a concurrent load and proves the handoff protocol
// (acquire → assign → release) loses nothing: every request succeeds at
// the router surface, and the final aggregate counts every run exactly
// once with no divergence.
func TestRebalanceLosesNoRequests(t *testing.T) {
	_, mapPath, m := buildSplit(t, 60, 2)
	w := cobench.Workload{Loops: 8, Samples: 3, Seed: 1993}

	a := startBackend(t, mapPath, []int{0})
	b := startBackend(t, mapPath, []int{1})
	_, rhs := startRouter(t, mapPath, []string{a.hs.URL, b.hs.URL})
	hc := &http.Client{Timeout: 60 * time.Second}

	models := complexobj.AllModels()
	queries := cobench.AllQueries()
	const perCell = 6 // requests per (model, query) cell
	type job struct{ m, q string }
	var jobs []job
	for r := 0; r < perCell; r++ {
		for _, k := range models {
			for _, q := range queries {
				jobs = append(jobs, job{k.String(), q.String()})
			}
		}
	}

	// The handoff runs while the load is in flight.
	var wg sync.WaitGroup
	wg.Add(1)
	handoffErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		time.Sleep(30 * time.Millisecond)
		// 1. New owner opens the segment and starts serving shard 0 too.
		if _, err := b.srv.AcquireShard(0, ""); err != nil {
			handoffErr <- fmt.Errorf("acquire: %w", err)
			return
		}
		// 2. Router repoints shard 0 at the new owner.
		resp, err := hc.Post(rhs.URL+"/map/assign?shard=0&backend="+url.QueryEscape(b.hs.URL), "", nil)
		if err != nil {
			handoffErr <- fmt.Errorf("assign: %w", err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			handoffErr <- fmt.Errorf("assign: %s", resp.Status)
			return
		}
		// 3. Old owner drops the shard; stragglers routed under the old
		// binding get 421 and retry against the new one.
		if _, err := a.srv.ReleaseShard(0); err != nil {
			handoffErr <- fmt.Errorf("release: %w", err)
			return
		}
		handoffErr <- nil
	}()

	err := fanout.Run(len(jobs), 8, func(i int) error {
		resp, err := hc.Get(runURL(rhs.URL, jobs[i].m, jobs[i].q, w))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s %s: %s mid-rebalance", jobs[i].m, jobs[i].q, resp.Status)
		}
		var rr server.RunResponse
		return json.NewDecoder(resp.Body).Decode(&rr)
	})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if herr := <-handoffErr; herr != nil {
		t.Fatal(herr)
	}

	// Every cell holds exactly perCell runs: none lost, none duplicated,
	// none divergent — even for the models that changed owner mid-load.
	var stats server.StatsResponse
	getJSONT(t, hc, rhs.URL+"/stats", &stats)
	if want := int64(len(jobs)); stats.Requests != want {
		t.Errorf("aggregate reports %d requests, want %d", stats.Requests, want)
	}
	if want := len(models) * len(queries); len(stats.Cells) != want {
		t.Fatalf("aggregate has %d cells, want %d", len(stats.Cells), want)
	}
	for _, c := range stats.Cells {
		if c.Count != perCell {
			t.Errorf("%s %s: count %d, want %d (requests lost or duplicated in the handoff)",
				c.Model, c.Query, c.Count, perCell)
		}
		if c.Divergent {
			t.Errorf("%s %s: divergent across the handoff — segment serving is not bit-identical", c.Model, c.Query)
		}
	}

	// The moved shard's models now live on backend B alone.
	sh0, _ := m.Shard(0)
	var ainfo, binfo server.InfoResponse
	getJSONT(t, hc, a.hs.URL+"/info", &ainfo)
	getJSONT(t, hc, b.hs.URL+"/info", &binfo)
	if len(ainfo.Sharding.Shards) != 0 {
		t.Errorf("old owner still owns %v after release", ainfo.Sharding.Shards)
	}
	if len(binfo.Sharding.Shards) != 2 {
		t.Errorf("new owner owns %v, want both shards", binfo.Sharding.Shards)
	}
	if len(binfo.Models) != len(models) {
		t.Errorf("new owner serves %d models, want all %d (shard 0 brings %v)",
			len(binfo.Models), len(models), sh0.Models)
	}
}

// TestDegradedShardOnly kills one backend and checks partial failure
// stays partial: the dead shard's models fail with a structured 503
// naming the shard, every other model keeps serving, and /healthz turns
// degraded without going down.
func TestDegradedShardOnly(t *testing.T) {
	_, mapPath, m := buildSplit(t, 40, 2)
	w := cobench.Workload{Loops: 5, Samples: 2, Seed: 7}

	b0 := startBackend(t, mapPath, []int{0})
	b1 := startBackend(t, mapPath, []int{1})
	rt, err := New(Config{MapPath: mapPath, Backends: []string{b0.hs.URL, b1.hs.URL},
		Retries: 2, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rhs := httptest.NewServer(rt.Handler())
	defer rhs.Close()
	hc := &http.Client{Timeout: 30 * time.Second}

	b1.hs.Close() // shard 1's backend dies

	sh0, _ := m.Shard(0)
	sh1, _ := m.Shard(1)
	for _, name := range sh0.Models {
		var rr server.RunResponse
		getJSONT(t, hc, runURL(rhs.URL, name, "1a", w), &rr)
	}
	for _, name := range sh1.Models {
		resp, err := hc.Get(runURL(rhs.URL, name, "1a", w))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			resp.Body.Close()
			t.Fatalf("dead shard model %s: %s, want 503", name, resp.Status)
		}
		var deg DegradedResponse
		if err := json.NewDecoder(resp.Body).Decode(&deg); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if deg.Shard != 1 || deg.Model != name || deg.Attempts != 2 {
			t.Errorf("degraded payload %+v, want shard 1 / model %s / 2 attempts", deg, name)
		}
	}

	var health RouterHealth
	getJSONT(t, hc, rhs.URL+"/healthz", &health)
	if health.Status != "degraded" {
		t.Errorf("router health %q with a dead backend, want degraded", health.Status)
	}
	unreachable := 0
	for _, row := range health.Backends {
		if row.Status == "unreachable" {
			unreachable++
		}
	}
	if unreachable != 1 {
		t.Errorf("%d unreachable backends, want 1", unreachable)
	}
}

// TestAssignValidation pins the /map/assign surface.
func TestAssignValidation(t *testing.T) {
	_, mapPath, _ := buildSplit(t, 40, 2)
	b0 := startBackend(t, mapPath, nil) // owns everything
	_, rhs := startRouter(t, mapPath, []string{b0.hs.URL, b0.hs.URL})
	hc := &http.Client{Timeout: 10 * time.Second}

	get, err := hc.Get(rhs.URL + "/map/assign?shard=0&backend=http://x")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET assign: %s, want 405", get.Status)
	}
	for path, want := range map[string]int{
		"/map/assign?shard=zz&backend=http://x": http.StatusBadRequest,
		"/map/assign?shard=0":                   http.StatusBadRequest,
		"/map/assign?shard=9&backend=http://x":  http.StatusConflict,
	} {
		resp, err := hc.Post(rhs.URL+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("POST %s: %s, want %d", path, resp.Status, want)
		}
	}
}
