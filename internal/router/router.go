package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"complexobj"
	"complexobj/internal/metrics"
	"complexobj/internal/server"
	"complexobj/internal/shard"
)

// Config parameterizes a Router.
type Config struct {
	// MapPath is the shard-map file (cogen -split) naming the shards and
	// the models each owns.
	MapPath string
	// Backends are the backend base URLs ("http://host:port"), one per
	// shard in map order. Empty falls back to the map's per-shard Backend
	// fields; every shard must end up with a backend one way or the other.
	Backends []string
	// Retries bounds the attempts per routed request (default 3). Retries
	// re-resolve the owner first, so a rebalance mid-request converges.
	Retries int
	// RetryBackoff is the wait before the second attempt, doubling per
	// retry (default 25ms). The total retry window is what covers the
	// acquire→assign→release handoff gap.
	RetryBackoff time.Duration
	// Fanout bounds the concurrent backends a scatter-gather touches
	// (default 4).
	Fanout int
	// Timeout bounds one backend call (default 60s; scatter-gather
	// endpoints use a short fraction of it).
	Timeout time.Duration
	// MaxIdlePerHost sizes the keep-alive pool per backend (default 32).
	MaxIdlePerHost int
}

// shardState is the routing and accounting state of one shard. The
// backend binding is the only mutable field (guarded by Router.mu); the
// counters are atomics beside the request path.
type shardState struct {
	backend  string
	requests atomic.Int64
	retries  atomic.Int64
	failures atomic.Int64
	lat      *metrics.Histogram
}

// Router fans /run requests to the backend owning the model's shard and
// scatter-gathers the observability endpoints. See the package comment.
type Router struct {
	cfg    Config
	client *http.Client
	dials  atomic.Int64
	start  time.Time

	// mu guards the shard map and the shard→backend bindings; held for
	// lookups and /map/assign, never across a backend call.
	mu      sync.RWMutex
	smap    *shard.Map
	shards  map[int]*shardState
	version uint64 // bumps on every /map/assign (starts at the map's)
	// known lists every backend ever bound, in first-seen order. The
	// scatter-gather for /stats walks this set, not just the live
	// bindings: after a handoff the old owner still holds the aggregates
	// of the runs it served, and dropping them would under-count cells.
	known []string

	requests    atomic.Int64
	misdirected atomic.Int64
	failures    atomic.Int64
}

// New loads the shard map and binds every shard to its backend.
func New(cfg Config) (*Router, error) {
	m, err := shard.Load(cfg.MapPath)
	if err != nil {
		return nil, fmt.Errorf("router: %w", err)
	}
	if len(cfg.Backends) != 0 && len(cfg.Backends) != len(m.Shards) {
		return nil, fmt.Errorf("router: %d backends for %d shards", len(cfg.Backends), len(m.Shards))
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 3
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 25 * time.Millisecond
	}
	if cfg.Fanout <= 0 {
		cfg.Fanout = 4
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	if cfg.MaxIdlePerHost <= 0 {
		cfg.MaxIdlePerHost = 32
	}
	rt := &Router{
		cfg:     cfg,
		smap:    m,
		shards:  make(map[int]*shardState, len(m.Shards)),
		version: m.Version,
		start:   time.Now(),
	}
	for i := range m.Shards {
		sh := &m.Shards[i]
		backend := sh.Backend
		if len(cfg.Backends) != 0 {
			backend = cfg.Backends[i]
		}
		if backend == "" {
			return nil, fmt.Errorf("router: shard %d has no backend (map Backend field or -backends)", sh.ID)
		}
		rt.shards[sh.ID] = &shardState{backend: backend, lat: metrics.NewHistogram()}
		rt.rememberLocked(backend)
	}
	// One pooled keep-alive transport across every backend: scatter-gather
	// and routed runs reuse warm connections, and the dial counter on
	// /metrics is the proof (dials plateau, requests do not).
	dialer := &net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}
	transport := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			rt.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
		MaxIdleConns:        cfg.MaxIdlePerHost * (len(m.Shards) + 1),
		MaxIdleConnsPerHost: cfg.MaxIdlePerHost,
		IdleConnTimeout:     90 * time.Second,
	}
	rt.client = &http.Client{Transport: transport, Timeout: cfg.Timeout}
	return rt, nil
}

// Close releases the transport's idle connections.
func (rt *Router) Close() {
	rt.client.CloseIdleConnections()
}

// Handler returns the HTTP handler serving the router's endpoints: the
// single-node wire surface (/run, /stats, /info, /healthz, /metrics) plus
// the rebalance endpoint /map/assign.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", rt.handleRun)
	mux.HandleFunc("/stats", rt.handleStats)
	mux.HandleFunc("/info", rt.handleInfo)
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/metrics", rt.handleMetrics)
	mux.HandleFunc("/map/assign", rt.handleAssign)
	return mux
}

// resolve maps a model name to its owning shard and current backend.
func (rt *Router) resolve(model string) (int, *shardState, bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	id, ok := rt.smap.Owner(model)
	if !ok {
		return 0, nil, false
	}
	st, ok := rt.shards[id]
	return id, st, ok
}

// backendFor snapshots the shard's binding at attempt time.
func (st *shardState) backendFor(rt *Router) string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return st.backend
}

// DegradedResponse is the structured 503 the router answers with when a
// shard's backend stays unreachable past the retry budget: it names the
// lost shard so a caller can tell "this shard is down" from "the
// deployment is down" (every other shard keeps serving).
type DegradedResponse struct {
	Error    string `json:"error"`
	Shard    int    `json:"shard"`
	Backend  string `json:"backend"`
	Model    string `json:"model"`
	Attempts int    `json:"attempts"`
}

// handleRun routes one benchmark run — its query string forwarded as it
// came, the model read with the backend's own parser — to the backend
// owning the model's shard and relays the response verbatim. Transient
// failures — transport errors, 503, 421 — retry with backoff after
// re-resolving the owner;
// everything else (including the backend's 400s and 500s) passes through
// untouched, so the router adds no semantics to the single-node surface.
func (rt *Router) handleRun(w http.ResponseWriter, r *http.Request) {
	kind, err := complexobj.ModelByName(server.ParseRunSpec(r.URL.RawQuery).Model)
	if err != nil {
		server.WriteJSON(w, http.StatusBadRequest, server.ErrorResponse{Error: err.Error()})
		return
	}
	canonical := kind.String()
	rt.requests.Add(1)

	var (
		lastErr  string
		lastID   int
		lastBack string
	)
	for attempt := 0; attempt < rt.cfg.Retries; attempt++ {
		if attempt > 0 {
			backoff := rt.cfg.RetryBackoff << (attempt - 1)
			select {
			case <-time.After(backoff):
			case <-r.Context().Done():
				clientGone(w, r)
				return
			}
		}
		id, st, ok := rt.resolve(canonical)
		if !ok {
			server.WriteJSON(w, http.StatusBadRequest, server.ErrorResponse{
				Error: fmt.Sprintf("model %s is in no shard of %s", canonical, rt.cfg.MapPath)})
			return
		}
		backend := st.backendFor(rt)
		lastID, lastBack = id, backend
		if attempt > 0 {
			st.retries.Add(1)
		}

		begin := time.Now()
		resp, err := rt.proxyGet(r.Context(), backend+"/run?"+r.URL.RawQuery)
		if err != nil {
			if r.Context().Err() != nil {
				clientGone(w, r)
				return
			}
			lastErr = err.Error()
			continue // transient transport error: retry against the (re-resolved) owner
		}
		switch resp.StatusCode {
		case http.StatusServiceUnavailable:
			// The backend is shedding (admission, deadline, or a pool
			// closing under a handoff): drain and retry.
			lastErr = drainError(resp)
			continue
		case http.StatusMisdirectedRequest:
			// The shard moved: the binding we used is stale. Re-resolving
			// next attempt picks up a /map/assign that raced us.
			rt.misdirected.Add(1)
			lastErr = drainError(resp)
			continue
		}
		st.requests.Add(1)
		if resp.StatusCode == http.StatusOK {
			st.lat.Observe(time.Since(begin))
		}
		relay(w, resp)
		return
	}
	rt.failures.Add(1)
	if st, ok := rt.shards[lastID]; ok {
		st.failures.Add(1)
	}
	server.WriteJSON(w, http.StatusServiceUnavailable, DegradedResponse{
		Error: fmt.Sprintf("shard %d (%s) unreachable for model %s after %d attempts: %s",
			lastID, lastBack, canonical, rt.cfg.Retries, lastErr),
		Shard:    lastID,
		Backend:  lastBack,
		Model:    canonical,
		Attempts: rt.cfg.Retries,
	})
}

// clientGone answers a run whose client went away while it was routed.
func clientGone(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusServiceUnavailable, server.ErrorResponse{
		Error: fmt.Sprintf("client gone: %v", r.Context().Err())})
}

// proxyGet issues one backend call on the pooled transport.
func (rt *Router) proxyGet(ctx context.Context, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return rt.client.Do(req)
}

// relay copies a backend response through verbatim.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// drainError consumes a retryable response's body for its error line
// (and to hand the connection back to the keep-alive pool).
func drainError(resp *http.Response) string {
	defer resp.Body.Close()
	var e server.ErrorResponse
	if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&e) == nil && e.Error != "" {
		return fmt.Sprintf("%s: %s", resp.Status, e.Error)
	}
	io.Copy(io.Discard, resp.Body)
	return resp.Status
}

// AssignResponse answers POST /map/assign.
type AssignResponse struct {
	Shard      int    `json:"shard"`
	Backend    string `json:"backend"`
	MapVersion uint64 `json:"mapVersion"`
}

// handleAssign repoints one shard to a new backend: the router-side step
// of a handoff, between the new owner's /shards/acquire and the old
// owner's /shards/release. With reload=1 the shard map file is re-read
// first, picking up model→shard changes made to that file as well.
func (rt *Router) handleAssign(w http.ResponseWriter, r *http.Request) {
	fail := func(code int, format string, args ...any) {
		server.WriteJSON(w, code, server.ErrorResponse{Error: fmt.Sprintf(format, args...)})
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		fail(http.StatusMethodNotAllowed, "/map/assign needs POST")
		return
	}
	id, err := strconv.Atoi(r.URL.Query().Get("shard"))
	if err != nil {
		fail(http.StatusBadRequest, "bad shard %q", r.URL.Query().Get("shard"))
		return
	}
	backend := r.URL.Query().Get("backend")
	if backend == "" {
		fail(http.StatusBadRequest, "backend is required")
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if r.URL.Query().Get("reload") == "1" {
		m, err := shard.Load(rt.cfg.MapPath)
		if err != nil {
			fail(http.StatusConflict, "reload shard map: %v", err)
			return
		}
		rt.smap = m
	}
	st, ok := rt.shards[id]
	if !ok {
		fail(http.StatusConflict, "no shard %d in %s", id, rt.cfg.MapPath)
		return
	}
	st.backend = backend
	rt.rememberLocked(backend)
	rt.version++
	server.WriteJSON(w, http.StatusOK, AssignResponse{Shard: id, Backend: backend, MapVersion: rt.version})
}

// bindings snapshots the shard→backend map, sorted by shard ID.
func (rt *Router) bindings() []shard.Shard {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]shard.Shard, 0, len(rt.smap.Shards))
	for i := range rt.smap.Shards {
		sh := rt.smap.Shards[i]
		sh.Models = append([]string(nil), sh.Models...)
		if st, ok := rt.shards[sh.ID]; ok {
			sh.Backend = st.backend
		}
		out = append(out, sh)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// rememberLocked records a backend in the known set; mu held exclusively
// (or the router not yet shared, as in New).
func (rt *Router) rememberLocked(backend string) {
	for _, b := range rt.known {
		if b == backend {
			return
		}
	}
	rt.known = append(rt.known, backend)
}

// boundSet returns the distinct currently-bound backend URLs in
// deterministic order — the serving topology /healthz probes.
func (rt *Router) boundSet() []string {
	seen := make(map[string]bool)
	var out []string
	for _, sh := range rt.bindings() {
		if !seen[sh.Backend] {
			seen[sh.Backend] = true
			out = append(out, sh.Backend)
		}
	}
	return out
}

// knownSet returns every backend ever bound, in first-seen order — the
// fan-out set of the measurement gathers (/stats, /info), which must
// count runs served under bindings that have since moved.
func (rt *Router) knownSet() []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return append([]string(nil), rt.known...)
}

// errBackend wraps a scatter-gather failure with its backend.
func errBackend(backend string, err error) error {
	return fmt.Errorf("%s: %w", backend, err)
}

var errNoBackends = errors.New("router: the map binds no backends")
