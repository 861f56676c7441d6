package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"complexobj"
	"complexobj/cobench"
	"complexobj/internal/fanout"
)

// parityRun is everything one drive of the parity test produces: the
// final /stats, /info and /metrics reads after the load drained.
type parityRun struct {
	stats   StatsResponse
	info    InfoResponse
	metrics string
}

// driveForParity starts a fault-armed, WAL-armed server over path and
// hammers every (model, query) cell with 8 concurrent clients, each
// retrying a cell until it succeeds — so every cell ends with exactly 8
// recorded runs no matter what the fault schedule injected — and then
// commits one update run per model, so the commit-path series carry real
// values. With scrape=true a background
// goroutine hammers /metrics and /info the whole time, which per the
// observability contract must not move a single counter.
func driveForParity(t *testing.T, path string, w cobench.Workload, scrape bool) parityRun {
	t.Helper()
	plan := mustPlan(t, "seed=2026,read=0.03,short=0.01,latency=0.05:100us")
	srv, err := New(Config{
		Snapshot:       path,
		BufferPages:    256,
		MaxViews:       3,
		MaxInflight:    10,
		RequestTimeout: 30 * time.Second,
		Faults:         plan,
		WALDir:         t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	stop := make(chan struct{})
	scraperDone := make(chan error, 1)
	if scrape {
		go func() {
			hc := hs.Client()
			for {
				select {
				case <-stop:
					scraperDone <- nil
					return
				default:
				}
				for _, ep := range []string{"/metrics", "/info"} {
					resp, err := hc.Get(hs.URL + ep)
					if err != nil {
						scraperDone <- err
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK || len(body) == 0 {
						scraperDone <- fmt.Errorf("scrape %s: %s (%d bytes)", ep, resp.Status, len(body))
						return
					}
				}
			}
		}()
	}

	models := complexobj.AllModels()
	queries := cobench.AllQueries()
	const clients = 8
	err = fanout.Run(clients, clients, func(c int) error {
		hc := hs.Client()
		for i := range models {
			k := models[(i+c)%len(models)]
			for j := range queries {
				q := queries[(j+c)%len(queries)]
				ok := false
				for attempt := 0; attempt < 50 && !ok; attempt++ {
					resp, err := hc.Get(runURL(hs.URL, k.String(), q.String(), w))
					if err != nil {
						return err
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					ok = resp.StatusCode == http.StatusOK
				}
				if !ok {
					return fmt.Errorf("client %d: %s %s never succeeded", c, k, q)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range models {
		committed := false
		for attempt := 0; attempt < 50 && !committed; attempt++ {
			resp, err := hs.Client().Get(durableRunURL(hs.URL, k.String(), "3a", w))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			committed = resp.StatusCode == http.StatusOK
		}
		if !committed {
			t.Fatalf("%s: committed 3a never succeeded", k)
		}
	}
	if scrape {
		close(stop)
		if err := <-scraperDone; err != nil {
			t.Fatal(err)
		}
	}

	var out parityRun
	getJSON(t, hs.Client(), hs.URL+"/stats", &out.stats)
	getJSON(t, hs.Client(), hs.URL+"/info", &out.info)
	resp, err := hs.Client().Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out.metrics = string(body)
	return out
}

// counterCells strips the timing fields (the only legitimately
// nondeterministic ones) and marshals the /stats cells, so two runs can
// be compared byte for byte.
func counterCells(t *testing.T, stats StatsResponse) []byte {
	t.Helper()
	cells := append([]AggCell(nil), stats.Cells...)
	for i := range cells {
		cells[i].MeanUS, cells[i].MaxUS = 0, 0
	}
	data, err := json.Marshal(cells)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// parseProm parses Prometheus text exposition into series → value,
// keyed by the full sample name including its label set.
func parseProm(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		key := line[:sp]
		if _, dup := out[key]; dup {
			t.Fatalf("duplicate metrics series %q", key)
		}
		out[key] = v
	}
	return out
}

// TestMetricsStatsParity pins the observability contract end to end:
// under a fault-armed 8-client soak, (1) scraping /metrics and /info the
// whole time leaves every /stats counter cell byte-identical to an
// unscraped run, and (2) the /metrics aggregate counters agree exactly
// with /stats and /info — same requests, same sheds, same faults, same
// per-cell counts — because both read the same underlying state.
func TestMetricsStatsParity(t *testing.T) {
	path, _ := buildSnapshot(t, 60)
	w := cobench.Workload{Loops: 10, Samples: 5, Seed: 1993}

	quiet := driveForParity(t, path, w, false)
	scraped := driveForParity(t, path, w, true)

	// (1) Paper counters are scrape-invariant, byte for byte.
	qc, sc := counterCells(t, quiet.stats), counterCells(t, scraped.stats)
	if string(qc) != string(sc) {
		t.Errorf("/stats counter cells differ between unscraped and scraped runs:\nquiet   %s\nscraped %s", qc, sc)
	}
	if quiet.stats.Requests != scraped.stats.Requests {
		t.Errorf("request totals differ: %d unscraped, %d scraped", quiet.stats.Requests, scraped.stats.Requests)
	}

	// (2) /metrics ↔ /stats ↔ /info agreement on the scraped run.
	prom := parseProm(t, scraped.metrics)
	stats, info := scraped.stats, scraped.info

	get := func(series string) float64 {
		v, ok := prom[series]
		if !ok {
			t.Fatalf("metrics series %q missing", series)
		}
		return v
	}
	if got := get("complexobj_requests_total"); got != float64(stats.Requests) {
		t.Errorf("complexobj_requests_total = %v, /stats requests = %d", got, stats.Requests)
	}
	var cellSum int64
	for _, cell := range stats.Cells {
		cellSum += cell.Count
	}
	if stats.DroppedCells != 0 {
		t.Fatalf("%d dropped cells; the parity sums assume none", stats.DroppedCells)
	}
	if cellSum != stats.Requests {
		t.Errorf("/stats cells sum to %d runs, requests = %d", cellSum, stats.Requests)
	}

	res := info.Resilience
	if got := get(`complexobj_requests_shed_total{reason="admission"}`); got != float64(res.ShedAdmission) {
		t.Errorf("shed admission: metrics %v, info %d", got, res.ShedAdmission)
	}
	if got := get(`complexobj_requests_shed_total{reason="deadline"}`); got != float64(res.ShedDeadline) {
		t.Errorf("shed deadline: metrics %v, info %d", got, res.ShedDeadline)
	}
	if got := get("complexobj_panics_total"); got != float64(res.Panics) {
		t.Errorf("panics: metrics %v, info %d", got, res.Panics)
	}

	// Fault counters: the schedule is armed, so the block must be present
	// and must equal the /info figures.
	if res.Faults == nil {
		t.Fatal("/info reports no fault stats despite an armed schedule")
	}
	for _, c := range []struct {
		series string
		want   int64
	}{
		{`complexobj_faults_injected_total{kind="read"}`, res.Faults.ReadFaults},
		{`complexobj_faults_injected_total{kind="short_read"}`, res.Faults.ShortReads},
		{`complexobj_faults_injected_total{kind="panic"}`, res.Faults.Panics},
		{"complexobj_fault_delays_total", res.Faults.Delays},
		{"complexobj_fault_ops_total", res.Faults.Ops},
	} {
		if got := get(c.series); got != float64(c.want) {
			t.Errorf("%s = %v, /info says %d", c.series, got, c.want)
		}
	}

	// Commit-path memory accounting: one commit per model ran, so every
	// base holds committed pages over its floor and the promote counter
	// moved, and /metrics agrees with /info on both.
	if info.Durability == nil {
		t.Fatal("/info reports no durability block despite an armed WAL")
	}
	var promoted int64
	for _, m := range info.Models {
		if m.Gen != 1 || m.DeltaPages == 0 || m.PromotedBytes == 0 {
			t.Errorf("%s after one commit: gen %d, deltaPages %d, promotedBytes %d", m.Model, m.Gen, m.DeltaPages, m.PromotedBytes)
		}
		if m.PromotedBytes < int64(m.DeltaPages)*int64(info.PageSize) {
			t.Errorf("%s: promotedBytes %d does not cover its %d committed pages", m.Model, m.PromotedBytes, m.DeltaPages)
		}
		promoted += m.PromotedBytes
		if got := get(fmt.Sprintf("complexobj_base_delta_pages{model=%q}", m.Model)); got != float64(m.DeltaPages) {
			t.Errorf("%s delta pages: metrics %v, info %d", m.Model, got, m.DeltaPages)
		}
	}
	if info.Durability.PromotedBytes != promoted {
		t.Errorf("durability promotedBytes %d, models sum to %d", info.Durability.PromotedBytes, promoted)
	}
	if got := get("complexobj_promote_copied_bytes_total"); got != float64(promoted) {
		t.Errorf("complexobj_promote_copied_bytes_total = %v, /info says %d", got, promoted)
	}

	// Per-cell parity: /metrics cell requests equal the /stats counts
	// grouped by (model, query) — latency cells key coarser than /stats
	// cells — and each latency histogram recorded exactly one observation
	// per counted run.
	grouped := make(map[cellKey]int64)
	for _, cell := range stats.Cells {
		grouped[cellKey{cell.Model, cell.Query}] += cell.Count
	}
	if len(grouped) == 0 {
		t.Fatal("no /stats cells; the drive was vacuous")
	}
	for key, want := range grouped {
		labels := fmt.Sprintf("model=%q,query=%q", key.model, key.query)
		if got := get("complexobj_cell_requests_total{" + labels + "}"); got != float64(want) {
			t.Errorf("cell %s %s: metrics requests %v, /stats runs %d", key.model, key.query, got, want)
		}
		for _, hist := range []string{"complexobj_queue_wait_seconds", "complexobj_service_time_seconds"} {
			if got := get(hist + "_count{" + labels + "}"); got != float64(want) {
				t.Errorf("cell %s %s: %s_count = %v, want %d", key.model, key.query, hist, got, want)
			}
		}
	}

	// The /info structured twin reads the same histograms.
	if len(info.Metrics.Cells) != len(grouped) {
		t.Fatalf("/info metrics has %d cells, /stats groups to %d", len(info.Metrics.Cells), len(grouped))
	}
	for _, cell := range info.Metrics.Cells {
		want := grouped[cellKey{cell.Model, cell.Query}]
		if cell.Requests != want {
			t.Errorf("/info cell %s %s: %d requests, /stats says %d", cell.Model, cell.Query, cell.Requests, want)
		}
		if cell.Queue.Count != want || cell.Service.Count != want {
			t.Errorf("/info cell %s %s: queue count %d, service count %d, want %d",
				cell.Model, cell.Query, cell.Queue.Count, cell.Service.Count, want)
		}
		if cell.Service.MaxMicros < 0 || cell.Queue.MaxMicros < 0 {
			t.Errorf("/info cell %s %s: negative latency summary", cell.Model, cell.Query)
		}
	}
}
