package server

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"complexobj/internal/metrics"
)

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

// latencyCell is one populated cell with its key.
type latencyCell struct {
	cellKey
	*cellMetrics
}

// sorted returns the populated cells in (model, query) order, so both
// /metrics and /info render deterministically.
func (l *latencyCells) sorted() []latencyCell {
	l.mu.RLock()
	cells := make([]latencyCell, 0, len(l.cells))
	for k, c := range l.cells {
		cells = append(cells, latencyCell{k, c})
	}
	l.mu.RUnlock()
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].model != cells[j].model {
			return cells[i].model < cells[j].model
		}
		return cells[i].query < cells[j].query
	})
	return cells
}

// metricsInfo builds the /info latency block.
func (s *Server) metricsInfo() MetricsInfo {
	info := MetricsInfo{Process: metrics.ReadProcStats()}
	for _, c := range s.lat.sorted() {
		info.Cells = append(info.Cells, CellLatency{
			Model:    c.model,
			Query:    c.query,
			Requests: c.requests.Load(),
			Queue:    metrics.Summarize(c.queue.Snapshot()),
			Service:  metrics.Summarize(c.service.Snapshot()),
		})
	}
	return info
}
