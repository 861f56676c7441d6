package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"complexobj/internal/fanout"
	"complexobj/internal/metrics"
	"complexobj/internal/server"
	"complexobj/internal/shard"
)

// The scatter-gather endpoints re-speak the single-node wire format over
// N backends: cobench pointed at the router sees the same /stats and
// /info schemas a lone coserve answers with. Fan-out is bounded
// (cfg.Fanout concurrent backends) and reuses the pooled transport.

// getJSON fetches one backend endpoint into v.
func (rt *Router) getJSON(ctx context.Context, url string, v any) error {
	resp, err := rt.proxyGet(ctx, url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s", drainError(resp))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// gatherJSON fans one endpoint out over every known backend with bounded
// concurrency, decoding each response into its own T.
func gatherJSON[T any](rt *Router, ctx context.Context, path string) ([]T, error) {
	backends := rt.knownSet()
	if len(backends) == 0 {
		return nil, errNoBackends
	}
	out := make([]T, len(backends))
	err := fanout.Run(len(backends), rt.cfg.Fanout, func(i int) error {
		if err := rt.getJSON(ctx, backends[i]+path, &out[i]); err != nil {
			return errBackend(backends[i], err)
		}
		return nil
	})
	return out, err
}

// handleStats scatter-gathers /stats across the backends and merges the
// aggregates into one StatsResponse with the server's own fold and cell
// order. With model-granular shards a cell normally lives on exactly one
// backend, so the merge is a union; after a handoff the same cell can
// carry runs from two owners, and then counts and sums add while the
// per-run Raw/PerUnit values must agree — any disagreement marks the cell
// divergent, exactly as a single node would flag a run that broke
// determinism.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	stats, err := gatherJSON[server.StatsResponse](rt, r.Context(), "/stats")
	if err != nil {
		server.WriteJSON(w, http.StatusBadGateway, server.ErrorResponse{Error: fmt.Sprintf("gather /stats: %v", err)})
		return
	}
	merged := server.StatsResponse{}
	cells := make(map[server.AggKey]*server.AggCell)
	for _, sr := range stats {
		merged.Requests += sr.Requests
		merged.DroppedCells += sr.DroppedCells
		if sr.UptimeSeconds > merged.UptimeSeconds {
			merged.UptimeSeconds = sr.UptimeSeconds
		}
		for _, c := range sr.Cells {
			cell := cells[c.AggKey]
			if cell == nil {
				cell = new(server.AggCell)
				cells[c.AggKey] = cell
			}
			cell.Fold(c)
		}
	}
	merged.Cells = make([]server.AggCell, 0, len(cells))
	for _, cell := range cells {
		merged.Cells = append(merged.Cells, *cell)
	}
	server.SortCells(merged.Cells)
	server.WriteJSON(w, http.StatusOK, merged)
}

// handleInfo merges the backends' /info into the single-node shape: the
// deployment identity (generator config, page size, buffer pages) comes
// from the first backend — every segment of one split carries the same
// header, and cobench's flag check needs exactly these fields — while the
// model list is the union across backends and the sharding block
// describes the router's current bindings.
func (rt *Router) handleInfo(w http.ResponseWriter, r *http.Request) {
	infos, err := gatherJSON[server.InfoResponse](rt, r.Context(), "/info")
	if err != nil {
		server.WriteJSON(w, http.StatusBadGateway, server.ErrorResponse{Error: fmt.Sprintf("gather /info: %v", err)})
		return
	}
	merged := infos[0]
	merged.Snapshot = rt.cfg.MapPath
	merged.Models = nil
	byName := make(map[string]server.PoolInfo)
	var names []string
	for _, info := range infos {
		for _, pi := range info.Models {
			if _, seen := byName[pi.Model]; !seen {
				byName[pi.Model] = pi
				names = append(names, pi.Model)
			}
		}
	}
	sort.Strings(names)
	for _, name := range names {
		merged.Models = append(merged.Models, byName[name])
	}
	// The router's own process stats replace the backend's: cobench -soak
	// samples /info for the RSS of whatever it drives.
	merged.Metrics = server.MetricsInfo{Process: metrics.ReadProcStats()}
	rt.mu.RLock()
	sharding := &server.ShardingInfo{MapPath: rt.cfg.MapPath, MapVersion: rt.version}
	rt.mu.RUnlock()
	for _, sh := range rt.bindings() {
		sharding.Shards = append(sharding.Shards, sh.ID)
		sharding.Models = append(sharding.Models, sh.Models...)
	}
	sort.Strings(sharding.Models)
	merged.Sharding = sharding
	server.WriteJSON(w, http.StatusOK, merged)
}

// BackendHealth is one backend's row in the router's /healthz.
type BackendHealth struct {
	Backend string `json:"backend"`
	Status  string `json:"status"` // the backend's own status, or "unreachable"
	Error   string `json:"error,omitempty"`
}

// RouterHealth is the router's /healthz payload: ok only when every
// backend answered its own /healthz with ok.
type RouterHealth struct {
	Status   string          `json:"status"`
	Backends []BackendHealth `json:"backends"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	backends := rt.boundSet()
	rows := make([]BackendHealth, len(backends))
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	defer cancel()
	fanout.Run(len(backends), rt.cfg.Fanout, func(i int) error {
		rows[i] = BackendHealth{Backend: backends[i]}
		var h server.HealthResponse
		if err := rt.getJSON(ctx, backends[i]+"/healthz", &h); err != nil {
			rows[i].Status = "unreachable"
			rows[i].Error = err.Error()
			return nil // health rows report errors, the probe itself never fails
		}
		rows[i].Status = h.Status
		return nil
	})
	out := RouterHealth{Status: "ok", Backends: rows}
	for _, row := range rows {
		if row.Status != "ok" {
			out.Status = "degraded"
		}
	}
	server.WriteJSON(w, http.StatusOK, out)
}

// handleMetrics renders the router's own counters — shard-level routing,
// retries, connection reuse — in the same Prometheus text format the
// backends use. Backend metrics are not proxied: a scraper federates each
// process separately, and the coshard_ prefix keeps the two apart.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := metrics.NewPromWriter(w)
	p.Sample("coshard_uptime_seconds", "gauge", "", time.Since(rt.start).Seconds())
	p.Sample("coshard_requests_total", "counter", "", float64(rt.requests.Load()))
	p.Sample("coshard_misdirected_total", "counter", "", float64(rt.misdirected.Load()))
	p.Sample("coshard_failed_requests_total", "counter", "", float64(rt.failures.Load()))
	p.Sample("coshard_dials_total", "counter", "", float64(rt.dials.Load()))
	rt.mu.RLock()
	version := rt.version
	rt.mu.RUnlock()
	p.Sample("coshard_map_version", "gauge", "", float64(version))
	for _, sh := range rt.bindings() {
		rt.mu.RLock()
		st := rt.shards[sh.ID]
		rt.mu.RUnlock()
		labels := fmt.Sprintf("shard=\"%d\"", sh.ID)
		p.Sample("coshard_shard_requests_total", "counter", labels, float64(st.requests.Load()))
		p.Sample("coshard_shard_retries_total", "counter", labels, float64(st.retries.Load()))
		p.Sample("coshard_shard_failures_total", "counter", labels, float64(st.failures.Load()))
		p.Sample("coshard_shard_assigned", "gauge",
			fmt.Sprintf("shard=\"%d\",backend=%q", sh.ID, sh.Backend), 1)
		p.Summary("coshard_shard_latency_seconds", labels, st.lat.Snapshot())
	}
}

// Map returns the router's current view of the shard map with live
// backend bindings (for coshard's startup banner).
func (rt *Router) Map() []shard.Shard { return rt.bindings() }

// Version returns the router's map-state version.
func (rt *Router) Version() uint64 {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.version
}
