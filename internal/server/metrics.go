package server

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"complexobj/internal/metrics"
)

// The observability layer sits strictly beside the paper's accounting:
// latency histograms and scrape handlers read private atomics, pool
// counters and the aggregate map — never an engine, a buffer pool or a
// device — so scraping /metrics cannot move a single /stats counter
// (TestMetricsStatsParity pins the cells byte-identical under a
// concurrent scraping load).

// cellKey identifies one (model, query) latency cell. Latency aggregates
// deliberately key coarser than /stats cells (which add the workload):
// the histogram answers "how fast is DSM 2b", whatever workload variants
// traffic mixes in.
type cellKey struct{ model, query string }

// cellMetrics holds the per-cell latency split: queue is the wait for
// admission plus the view-pool acquire, service the query execution
// inside the workload runner. Requests counts exactly the runs /stats
// aggregates (successful responses), which is what makes the /metrics ↔
// /stats parity checkable.
type cellMetrics struct {
	requests atomic.Int64
	queue    *metrics.Histogram
	service  *metrics.Histogram
}

// latencyCells is the lazily-populated (model, query) → histogram table.
type latencyCells struct {
	mu    sync.RWMutex
	cells map[cellKey]*cellMetrics
}

func newLatencyCells() *latencyCells {
	return &latencyCells{cells: make(map[cellKey]*cellMetrics)}
}

// get returns the cell, creating it on first use (double-checked so the
// steady state is one RLock).
func (l *latencyCells) get(model, query string) *cellMetrics {
	key := cellKey{model, query}
	l.mu.RLock()
	c := l.cells[key]
	l.mu.RUnlock()
	if c != nil {
		return c
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if c = l.cells[key]; c == nil {
		c = &cellMetrics{queue: metrics.NewHistogram(), service: metrics.NewHistogram()}
		l.cells[key] = c
	}
	return c
}

// observe folds one successful request into its cell.
func (l *latencyCells) observe(model, query string, queueWait, service time.Duration) {
	c := l.get(model, query)
	c.requests.Add(1)
	c.queue.Observe(queueWait)
	c.service.Observe(service)
}

// sortedKeys returns the populated cell keys in (model, query) order, so
// both /metrics and /info render deterministically.
func (l *latencyCells) sortedKeys() []cellKey {
	l.mu.RLock()
	keys := make([]cellKey, 0, len(l.cells))
	for k := range l.cells {
		keys = append(keys, k)
	}
	l.mu.RUnlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].model != keys[j].model {
			return keys[i].model < keys[j].model
		}
		return keys[i].query < keys[j].query
	})
	return keys
}

// CellLatency is the /info latency block of one (model, query) cell.
type CellLatency struct {
	Model    string          `json:"model"`
	Query    string          `json:"query"`
	Requests int64           `json:"requests"`
	Queue    metrics.Summary `json:"queueWait"`
	Service  metrics.Summary `json:"service"`
}

// MetricsInfo is the structured twin of the /metrics endpoint inside
// /info: process memory plus the per-cell latency summaries. The
// Prometheus text rendering and this block read the same histograms.
type MetricsInfo struct {
	Process metrics.ProcStats `json:"process"`
	Cells   []CellLatency     `json:"cells"`
}

// metricsInfo builds the /info latency block.
func (s *Server) metricsInfo() MetricsInfo {
	info := MetricsInfo{Process: metrics.ReadProcStats()}
	for _, key := range s.lat.sortedKeys() {
		c := s.lat.get(key.model, key.query)
		info.Cells = append(info.Cells, CellLatency{
			Model:    key.model,
			Query:    key.query,
			Requests: c.requests.Load(),
			Queue:    metrics.Summarize(c.queue.Snapshot()),
			Service:  metrics.Summarize(c.service.Snapshot()),
		})
	}
	return info
}

// handleMetrics serves the Prometheus text exposition. Everything it
// reads is observability state (atomics, pool mutexes, the aggregate
// mutex) — no engine, device or buffer state — so a scrape at any point
// of a load leaves every paper counter untouched.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := metrics.NewPromWriter(w)

	p.Sample("complexobj_uptime_seconds", "gauge", "", time.Since(s.start).Seconds())
	p.Sample("complexobj_requests_total", "counter", "", float64(s.requests.Load()))
	p.Sample("complexobj_requests_shed_total", "counter", `reason="admission"`, float64(s.shedAdmit.Load()))
	p.Sample("complexobj_requests_shed_total", "counter", `reason="deadline"`, float64(s.shedDeadline.Load()))
	p.Sample("complexobj_panics_total", "counter", "", float64(s.panics.Load()))

	inFlight := 0
	if s.admit != nil {
		inFlight = len(s.admit)
	}
	p.Sample("complexobj_inflight_requests", "gauge", "", float64(inFlight))
	p.Sample("complexobj_max_inflight_requests", "gauge", "", float64(s.maxInflight))

	s.mu.Lock()
	aggCells, aggDropped := len(s.agg), s.aggDropped
	s.mu.Unlock()
	p.Sample("complexobj_stats_cells", "gauge", "", float64(aggCells))
	p.Sample("complexobj_stats_dropped_cells_total", "counter", "", float64(aggDropped))

	// Per-model view pools: occupancy gauges plus the lifetime counters
	// (borrows = acquisitions served = created + reused). The ownership
	// read lock covers the model walk — on a sharded backend the set
	// changes as shards move (the owned-shard gauge beside it says which).
	s.omu.RLock()
	if s.smap != nil {
		p.Sample("complexobj_shard_map_version", "gauge", "", float64(s.smap.Version))
		p.Sample("complexobj_owned_shards", "gauge", "", float64(len(s.owned)))
		for _, id := range s.owned {
			p.Sample("complexobj_shard_owned", "gauge", fmt.Sprintf("shard=%q", strconv.Itoa(id)), 1)
		}
	}
	var promoted int64
	for _, k := range s.models {
		ps := s.pools[k].Stats()
		promoted += s.bases[k].PromotedBytes()
		labels := fmt.Sprintf("model=%q", k.String())
		p.Sample("complexobj_viewpool_max_views", "gauge", labels, float64(ps.MaxViews))
		p.Sample("complexobj_viewpool_inuse_views", "gauge", labels, float64(ps.InUse))
		p.Sample("complexobj_viewpool_idle_views", "gauge", labels, float64(ps.Idle))
		p.Sample("complexobj_viewpool_borrows_total", "counter", labels, float64(ps.Created+ps.Reused))
		p.Sample("complexobj_viewpool_created_total", "counter", labels, float64(ps.Created))
		p.Sample("complexobj_viewpool_reused_total", "counter", labels, float64(ps.Reused))
		p.Sample("complexobj_viewpool_recycled_total", "counter", labels, float64(ps.Recycled))
		p.Sample("complexobj_viewpool_rebuilt_total", "counter", labels, float64(ps.Rebuilt))
		p.Sample("complexobj_viewpool_destroyed_total", "counter", labels, float64(ps.Destroyed))
		p.Sample("complexobj_viewpool_quarantined_total", "counter", labels, float64(ps.Quarantined))
		p.Sample("complexobj_viewpool_stale_total", "counter", labels, float64(ps.Stale))
		p.Sample("complexobj_base_generation", "gauge", labels, float64(s.bases[k].Gen()))
		p.Sample("complexobj_base_delta_pages", "gauge", labels, float64(s.bases[k].DeltaPages()))
	}
	s.omu.RUnlock()

	// Durable commit path (only with -wal): write-ahead-log counters plus
	// the per-model commit-latency summaries. All of it sits outside the
	// paper's I/O accounting, like the latency histograms above.
	if s.clog != nil {
		cs := s.clog.Stats()
		p.Sample("complexobj_commits_total", "counter", "", float64(cs.Commits))
		p.Sample("complexobj_wal_syncs_total", "counter", "", float64(cs.Syncs))
		p.Sample("complexobj_wal_appended_bytes_total", "counter", "", float64(cs.AppendedBytes))
		p.Sample("complexobj_wal_payload_bytes_total", "counter", "", float64(cs.PayloadBytes))
		p.Sample("complexobj_promote_copied_bytes_total", "counter", "", float64(promoted))
		if cs.PayloadBytes > 0 {
			p.Sample("complexobj_wal_write_amplification", "gauge", "",
				float64(cs.AppendedBytes)/float64(cs.PayloadBytes))
		}
		p.Sample("complexobj_wal_size_bytes", "gauge", "", float64(cs.SizeBytes))
		p.Sample("complexobj_wal_last_seq", "gauge", "", float64(cs.LastSeq))
		p.Sample("complexobj_checkpoints_total", "counter", "", float64(cs.Checkpoints))
		p.Sample("complexobj_wal_recovered_commits", "gauge", "", float64(cs.Recovered))
		for _, key := range s.commitLat.sortedKeys() {
			c := s.commitLat.get(key.model, key.query)
			p.Summary("complexobj_commit_seconds", fmt.Sprintf("model=%q", key.model), c.service.Snapshot())
		}
	}

	// Injected-fault counters (only when a schedule is armed). Injection
	// sits below device accounting: these count misbehavior, never paper
	// I/O.
	if s.cfg.Faults != nil {
		fs := s.cfg.Faults.Stats()
		p.Sample("complexobj_fault_ops_total", "counter", "", float64(fs.Ops))
		for _, f := range []struct {
			kind string
			n    int64
		}{
			{"read", fs.ReadFaults}, {"write", fs.WriteFaults}, {"grow", fs.GrowFaults},
			{"permanent", fs.PermFaults}, {"short_read", fs.ShortReads},
			{"torn_write", fs.TornWrites}, {"panic", fs.Panics},
		} {
			p.Sample("complexobj_faults_injected_total", "counter", fmt.Sprintf("kind=%q", f.kind), float64(f.n))
		}
		p.Sample("complexobj_fault_delays_total", "counter", "", float64(fs.Delays))
		p.Sample("complexobj_fault_poisoned_pages", "gauge", "", float64(fs.PoisonedPages))
	}

	// Process memory: OS resident set next to the Go heap, the figures
	// cobench's -soak RSS gate samples.
	ps := metrics.ReadProcStats()
	p.Sample("complexobj_process_resident_memory_bytes", "gauge", "", float64(ps.RSSBytes))
	p.Sample("complexobj_process_peak_resident_memory_bytes", "gauge", "", float64(ps.PeakRSSBytes))
	p.Sample("complexobj_process_heap_alloc_bytes", "gauge", "", float64(ps.HeapAllocBytes))
	p.Sample("complexobj_process_heap_sys_bytes", "gauge", "", float64(ps.HeapSysBytes))
	p.Sample("complexobj_process_heap_inuse_bytes", "gauge", "", float64(ps.HeapInuseBytes))
	p.Sample("complexobj_process_gc_total", "counter", "", float64(ps.GCTotal))

	// Per-(model, query) cells: request counts and the queue/service
	// latency split, in deterministic cell order.
	for _, key := range s.lat.sortedKeys() {
		c := s.lat.get(key.model, key.query)
		labels := fmt.Sprintf("model=%q,query=%q", key.model, key.query)
		p.Sample("complexobj_cell_requests_total", "counter", labels, float64(c.requests.Load()))
		p.Summary("complexobj_queue_wait_seconds", labels, c.queue.Snapshot())
		p.Summary("complexobj_service_time_seconds", labels, c.service.Snapshot())
	}
}
