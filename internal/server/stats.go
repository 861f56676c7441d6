package server

import (
	"net/http"
	"sort"
	"time"
)

// Fold merges o's runs into c — the one aggregation of /stats, used by
// the server (o is one run: Count 1, Raw == RawSum, MeanUS == MaxUS) and
// by the router (o is a cell read off a backend). Counts and sums add,
// the maximum and the exact mean carry over, and the cell turns Divergent
// when o is, or when o's per-run values disagree with c's: a
// deterministic cell must measure identically on every run, on every
// backend. Folding into a zero cell copies o.
func (c *AggCell) Fold(o AggCell) {
	if o.sumUS == 0 {
		o.sumUS = o.MeanUS * o.Count
	}
	if c.Count == 0 {
		*c = o
		return
	}
	if o.Divergent || o.Raw != c.Raw || o.PerUnit != c.PerUnit || o.Supported != c.Supported {
		c.Divergent = true
	}
	c.Count += o.Count
	c.RawSum.Add(o.RawSum)
	c.sumUS += o.sumUS
	c.MeanUS = c.sumUS / c.Count
	if o.MaxUS > c.MaxUS {
		c.MaxUS = o.MaxUS
	}
}

// SortCells puts /stats cells in their wire order — model, query, then
// the workload parameters — so repeated reads, and a router's merge of
// several backends, are byte-comparable.
func SortCells(cells []AggCell) {
	sort.Slice(cells, func(i, j int) bool {
		a, b := &cells[i], &cells[j]
		if a.Model != b.Model {
			return a.Model < b.Model
		}
		if a.Query != b.Query {
			return a.Query < b.Query
		}
		if a.Workload.Loops != b.Workload.Loops {
			return a.Workload.Loops < b.Workload.Loops
		}
		if a.Workload.Samples != b.Workload.Samples {
			return a.Workload.Samples < b.Workload.Samples
		}
		return a.Workload.Seed < b.Workload.Seed
	})
}

// maxAggCells bounds the aggregate map: the legitimate key space (model ×
// query × a handful of workloads) is tiny, but workload parameters come
// from the request, so without a cap a caller sweeping seeds would grow
// server memory without bound. Runs beyond the cap are still served and
// counted in Requests; only their per-cell aggregation is dropped
// (reported as DroppedCells in /stats).
const maxAggCells = 4096

// record folds one successful run into its cell (mu).
func (s *Server) record(r *RunResponse) {
	key := AggKey{Model: r.Model, Query: r.Query, Workload: r.Workload}
	s.mu.Lock()
	defer s.mu.Unlock()
	cell, ok := s.agg[key]
	if !ok {
		if len(s.agg) >= maxAggCells {
			s.aggDropped++
			return
		}
		cell = new(AggCell)
		s.agg[key] = cell
	}
	cell.Fold(AggCell{
		AggKey:    key,
		Count:     1,
		Supported: r.Supported,
		Raw:       r.Raw,
		RawSum:    r.Raw,
		PerUnit:   r.PerUnit,
		MeanUS:    r.ElapsedUS,
		MaxUS:     r.ElapsedUS,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	dropped := s.aggDropped
	cells := make([]AggCell, 0, len(s.agg))
	for _, cell := range s.agg {
		cells = append(cells, *cell)
	}
	s.mu.Unlock()
	SortCells(cells)
	writeJSON(w, StatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      s.requests.Load(),
		Cells:         cells,
		DroppedCells:  dropped,
	})
}
