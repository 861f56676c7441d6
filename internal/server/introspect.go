package server

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"complexobj/internal/metrics"
)

// state is one reading of the live server, which /info, /healthz and
// /metrics render. Everything in it is observability state — atomics,
// pool and base counters, the commit log's counters — never an engine, a
// buffer pool or a device, so a scrape at any point of a load cannot move
// a /stats counter (TestMetricsStatsParity).
type state struct {
	models     []PoolInfo      // served models, in the paper's order
	sharding   *ShardingInfo   // nil: unsharded
	resilience ResilienceInfo  // admission envelope, sheds, panics, quarantines, faults
	durability *DurabilityInfo // nil without -wal
}

// state takes that reading: the ownership state under one omu read lock,
// released before the commit log (which locks itself) is asked.
func (s *Server) state() state {
	st := state{resilience: ResilienceInfo{
		MaxInflight:      s.maxInflight,
		InFlight:         len(s.slots),
		RequestTimeoutMS: s.cfg.RequestTimeout.Milliseconds(),
		ShedAdmission:    s.shedAdmit.Load(),
		ShedDeadline:     s.shedDeadline.Load(),
		Panics:           s.panics.Load(),
	}}
	var promoted int64
	s.omu.RLock()
	for _, k := range s.servedLocked() {
		m := s.models[k]
		pi := PoolInfo{
			Model:         k.String(),
			ArenaBytes:    m.base.ArenaBytes(),
			NumPages:      m.base.NumPages(),
			Mapped:        m.base.Mapped(),
			ViewPoolStats: m.pool.Stats(),
			Gen:           m.base.Gen(),
			PromotedBytes: m.base.PromotedBytes(),
			DeltaPages:    m.base.DeltaPages(),
		}
		st.resilience.QuarantinedViews += pi.Quarantined
		promoted += pi.PromotedBytes
		st.models = append(st.models, pi)
	}
	if s.smap != nil {
		st.sharding = &ShardingInfo{
			MapPath:    s.cfg.ShardMap,
			MapVersion: s.smap.Version,
			Shards:     append([]int(nil), s.owned...),
		}
		for _, pi := range st.models {
			st.sharding.Models = append(st.sharding.Models, pi.Model)
		}
	}
	s.omu.RUnlock()
	if s.cfg.Faults != nil {
		fs := s.cfg.Faults.Stats()
		st.resilience.FaultSpec = s.cfg.Faults.String()
		st.resilience.Faults = &fs
	}
	if s.clog != nil {
		cs := s.clog.Stats()
		st.durability = &DurabilityInfo{
			WALDir:          cs.Dir,
			Commits:         cs.Commits,
			Syncs:           cs.Syncs,
			AppendedBytes:   cs.AppendedBytes,
			PayloadBytes:    cs.PayloadBytes,
			PromotedBytes:   promoted,
			WALSizeBytes:    cs.SizeBytes,
			LastSeq:         cs.LastSeq,
			Checkpoints:     cs.Checkpoints,
			Recovered:       cs.Recovered,
			CheckpointBytes: s.cfg.CheckpointBytes,
		}
		if cs.PayloadBytes > 0 {
			st.durability.WriteAmplification = float64(cs.AppendedBytes) / float64(cs.PayloadBytes)
		}
	}
	return st
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	st := s.state()
	WriteJSON(w, http.StatusOK, InfoResponse{
		Snapshot:    s.cfg.Snapshot,
		Gen:         s.info.Gen,
		PageSize:    s.info.PageSize,
		BufferPages: s.cfg.BufferPages,
		Workload: WorkloadParams{
			Loops: s.cfg.Workload.Loops, Samples: s.cfg.Workload.Samples, Seed: s.cfg.Workload.Seed,
		},
		Models:     st.models,
		Resilience: st.resilience,
		Durability: st.durability,
		Metrics:    s.metricsInfo(),
		Sharding:   st.sharding,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	res := s.state().resilience
	status := "ok"
	if s.slots != nil && res.InFlight >= res.MaxInflight {
		status = "degraded"
	}
	WriteJSON(w, http.StatusOK, HealthResponse{
		Status:      status,
		InFlight:    res.InFlight,
		MaxInflight: res.MaxInflight,
		Shed:        res.ShedAdmission + res.ShedDeadline,
		Panics:      res.Panics,
		Quarantined: res.QuarantinedViews,
	})
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.state()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := metrics.NewPromWriter(w)

	p.Sample("complexobj_uptime_seconds", "gauge", "", time.Since(s.start).Seconds())
	p.Sample("complexobj_requests_total", "counter", "", float64(s.requests.Load()))
	p.Sample("complexobj_requests_shed_total", "counter", `reason="admission"`, float64(st.resilience.ShedAdmission))
	p.Sample("complexobj_requests_shed_total", "counter", `reason="deadline"`, float64(st.resilience.ShedDeadline))
	p.Sample("complexobj_panics_total", "counter", "", float64(st.resilience.Panics))
	p.Sample("complexobj_inflight_requests", "gauge", "", float64(st.resilience.InFlight))
	p.Sample("complexobj_max_inflight_requests", "gauge", "", float64(st.resilience.MaxInflight))

	s.mu.Lock()
	aggCells, aggDropped := len(s.agg), s.aggDropped
	s.mu.Unlock()
	p.Sample("complexobj_stats_cells", "gauge", "", float64(aggCells))
	p.Sample("complexobj_stats_dropped_cells_total", "counter", "", float64(aggDropped))

	// On a sharded backend the served set changes as shards move; the
	// owned-shard gauges say which.
	if sh := st.sharding; sh != nil {
		p.Sample("complexobj_shard_map_version", "gauge", "", float64(sh.MapVersion))
		p.Sample("complexobj_owned_shards", "gauge", "", float64(len(sh.Shards)))
		for _, id := range sh.Shards {
			p.Sample("complexobj_shard_owned", "gauge", fmt.Sprintf("shard=%q", strconv.Itoa(id)), 1)
		}
	}
	// Per-model view pools: occupancy gauges plus the lifetime counters
	// (borrows = acquisitions served = created + reused).
	for _, m := range st.models {
		labels := fmt.Sprintf("model=%q", m.Model)
		p.Sample("complexobj_viewpool_max_views", "gauge", labels, float64(m.MaxViews))
		p.Sample("complexobj_viewpool_inuse_views", "gauge", labels, float64(m.InUse))
		p.Sample("complexobj_viewpool_idle_views", "gauge", labels, float64(m.Idle))
		p.Sample("complexobj_viewpool_borrows_total", "counter", labels, float64(m.Created+m.Reused))
		p.Sample("complexobj_viewpool_created_total", "counter", labels, float64(m.Created))
		p.Sample("complexobj_viewpool_reused_total", "counter", labels, float64(m.Reused))
		p.Sample("complexobj_viewpool_recycled_total", "counter", labels, float64(m.Recycled))
		p.Sample("complexobj_viewpool_rebuilt_total", "counter", labels, float64(m.Rebuilt))
		p.Sample("complexobj_viewpool_destroyed_total", "counter", labels, float64(m.Destroyed))
		p.Sample("complexobj_viewpool_quarantined_total", "counter", labels, float64(m.Quarantined))
		p.Sample("complexobj_viewpool_stale_total", "counter", labels, float64(m.Stale))
		p.Sample("complexobj_base_generation", "gauge", labels, float64(m.Gen))
		p.Sample("complexobj_base_delta_pages", "gauge", labels, float64(m.DeltaPages))
	}

	// Durable commit path (only with -wal): write-ahead-log counters plus
	// the per-model commit-latency summaries. All of it sits outside the
	// paper's I/O accounting, like the latency histograms below.
	if d := st.durability; d != nil {
		p.Sample("complexobj_commits_total", "counter", "", float64(d.Commits))
		p.Sample("complexobj_wal_syncs_total", "counter", "", float64(d.Syncs))
		p.Sample("complexobj_wal_appended_bytes_total", "counter", "", float64(d.AppendedBytes))
		p.Sample("complexobj_wal_payload_bytes_total", "counter", "", float64(d.PayloadBytes))
		p.Sample("complexobj_promote_copied_bytes_total", "counter", "", float64(d.PromotedBytes))
		if d.PayloadBytes > 0 {
			p.Sample("complexobj_wal_write_amplification", "gauge", "", d.WriteAmplification)
		}
		p.Sample("complexobj_wal_size_bytes", "gauge", "", float64(d.WALSizeBytes))
		p.Sample("complexobj_wal_last_seq", "gauge", "", float64(d.LastSeq))
		p.Sample("complexobj_checkpoints_total", "counter", "", float64(d.Checkpoints))
		p.Sample("complexobj_wal_recovered_commits", "gauge", "", float64(d.Recovered))
		for _, c := range s.commitLat.sorted() {
			p.Summary("complexobj_commit_seconds", fmt.Sprintf("model=%q", c.model), c.service.Snapshot())
		}
	}

	// Injected-fault counters (only when a schedule is armed). Injection
	// sits below device accounting: these count misbehavior, never paper
	// I/O.
	if fs := st.resilience.Faults; fs != nil {
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
	for _, c := range s.lat.sorted() {
		labels := fmt.Sprintf("model=%q,query=%q", c.model, c.query)
		p.Sample("complexobj_cell_requests_total", "counter", labels, float64(c.requests.Load()))
		p.Summary("complexobj_queue_wait_seconds", labels, c.queue.Snapshot())
		p.Summary("complexobj_service_time_seconds", labels, c.service.Snapshot())
	}
}
