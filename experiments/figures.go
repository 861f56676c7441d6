package experiments

import (
	"fmt"

	"complexobj/cobench"
	"complexobj/costmodel"
	"complexobj/internal/fanout"
	"complexobj/internal/store"
	"complexobj/report"
)

// fig5Models are the storage models Figure 5 compares ("Since 'pure' NSM
// has not shown to be particularly suited for complex object storage, we
// do not consider this storage model any longer", §5.3).
var fig5Models = []store.Kind{store.DSM, store.DASDBSDSM, store.DASDBSNSM}

// Fig5Cell is one bar group of Figure 5: the measured page I/Os of one
// model under one maximum sightseeing count.
type Fig5Cell struct {
	Model      string
	MaxSeeing  int
	AvgSeeings float64
	Q1c        float64
	Q2b        float64
	Q3b        float64
}

// Figure5 reproduces the object-size experiment of §5.3: the benchmark is
// regenerated with at most 0, 15 and 30 sightseeings per station (realised
// averages ~0/7.5/15) and queries 1c, 2b and 3b are measured for DSM,
// DASDBS-DSM and DASDBS-NSM. The generator draws sightseeings from an
// independent random stream, so the platform/connection graph is identical
// across the sweep and the figure isolates the pure object-size effect.
//
// The (maxSeeing, layout) cell groups are independent — each acquires the
// base of its own extension, DSM and DASDBS-DSM as views of one — so they
// fan out over the suite's worker pool; results land at fixed indices
// and do not depend on the width.
func (s *Suite) Figure5() ([]Fig5Cell, error) {
	if s.fig5 != nil {
		return s.fig5, nil
	}
	opts, err := s.storeOptions()
	if err != nil {
		return nil, err
	}
	maxSees := []int{0, 15, 30}
	// Generate each maxSeeing extension once and hold it for the whole
	// figure; the three model cells of a column share it read-only (and
	// the column whose maxSeeing equals the suite default is the suite's
	// own extension, with the frozen bases the matrix and the buffer sweep
	// use).
	gens := make([]cobench.Config, len(maxSees))
	genStats := make([]cobench.Stats, len(maxSees))
	for i, maxSee := range maxSees {
		gens[i] = s.cfg.Gen.WithMaxSeeing(maxSee)
		stations, release, err := s.extension(gens[i])
		if err != nil {
			return nil, err
		}
		defer release()
		genStats[i] = cobench.Describe(stations)
	}
	cells := make([]Fig5Cell, len(maxSees)*len(fig5Models))
	groups := layoutGroups(fig5Models)
	err = fanout.Run(len(maxSees)*len(groups), s.workers(), func(u int) error {
		col, g := u/len(groups), groups[u%len(groups)]
		res, err := s.runQueries(fig5Models[g[0]:g[1]], opts, gens[col], s.cfg.Workload,
			cobench.Q1c, cobench.Q2b, cobench.Q3b)
		if err != nil {
			return err
		}
		for j, r := range res {
			cells[col*len(fig5Models)+g[0]+j] = Fig5Cell{
				Model:      fig5Models[g[0]+j].String(),
				MaxSeeing:  maxSees[col],
				AvgSeeings: genStats[col].AvgSeeings,
				Q1c:        r[cobench.Q1c].Pages,
				Q2b:        r[cobench.Q2b].Pages,
				Q3b:        r[cobench.Q3b].Pages,
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.fig5 = cells
	return cells, nil
}

// RenderFigure5 renders the Figure 5 data as one table per query, bar
// groups as rows.
func RenderFigure5(cells []Fig5Cell) []*report.Table {
	queries := []struct {
		name string
		get  func(Fig5Cell) float64
	}{
		{"1c", func(c Fig5Cell) float64 { return c.Q1c }},
		{"2b", func(c Fig5Cell) float64 { return c.Q2b }},
		{"3b", func(c Fig5Cell) float64 { return c.Q3b }},
	}
	var out []*report.Table
	for _, q := range queries {
		t := &report.Table{
			Title:  fmt.Sprintf("Figure 5 (query %s): measured page I/Os while max sightseeings is 0, 15, 30", q.name),
			Header: []string{"MODEL", "maxSee=0", "maxSee=15", "maxSee=30"},
		}
		for _, k := range fig5Models {
			cells3 := []string{k.String()}
			for _, maxSee := range []int{0, 15, 30} {
				for _, c := range cells {
					if c.Model == k.String() && c.MaxSeeing == maxSee {
						cells3 = append(cells3, report.Num(q.get(c)))
					}
				}
			}
			t.AddRow(cells3...)
		}
		out = append(out, t)
	}
	return out
}

// Fig6Point is one point of Figure 6: query 2b pages per loop at one
// database size, measured against the analytical best and worst case.
type Fig6Point struct {
	Model     string
	N         int
	Loops     int
	Measured  float64
	BestCase  float64
	WorstCase float64
}

// Fig6Sizes is the database-size axis of Figure 6 (the paper sweeps 100 to
// 1500 objects on a logarithmic axis).
var Fig6Sizes = []int{100, 200, 400, 700, 1000, 1500}

// Figure6 reproduces the caching experiment of §5.4: query 2b is run with
// loops = N/5 for increasing database sizes; without cache overflow the
// measured values sit at the analytical best case, with overflow the
// direct models degrade toward the worst case (the query 2a estimate).
//
// The (N, layout) point groups fan out over the suite's worker pool with
// per-point bases, and each point's extension is generated once for all
// of its groups (pointHold); only the analytical envelope is computed up
// front.
func (s *Suite) Figure6() ([]Fig6Point, error) {
	if s.fig6 != nil {
		return s.fig6, nil
	}
	params, _, err := s.DerivedParams()
	if err != nil {
		return nil, err
	}
	opts, err := s.storeOptions()
	if err != nil {
		return nil, err
	}
	baseN := float64(s.cfg.Gen.N)
	points := make([]Fig6Point, len(Fig6Sizes)*len(fig5Models))
	groups := layoutGroups(fig5Models)
	hold := s.newPointHold(len(Fig6Sizes), len(groups))
	defer hold.close()
	err = fanout.Run(len(Fig6Sizes)*len(groups), s.workers(), func(u int) error {
		size, g := u/len(groups), groups[u%len(groups)]
		n, gen := Fig6Sizes[size], s.cfg.Gen.WithN(Fig6Sizes[size])
		w := s.cfg.Workload
		w.Loops = cobench.LoopsFor(n)
		var res []map[cobench.Query]Measured
		err := hold.group(size, gen, func() (err error) {
			res, err = s.runQueries(fig5Models[g[0]:g[1]], opts, gen, w, cobench.Q2b)
			return err
		})
		if err != nil {
			return err
		}
		scaled := params.Scaled(float64(n), baseN)
		wl := costmodel.Workload{
			N:        float64(n),
			Children: costmodel.PaperWorkload().Children,
			Grand:    costmodel.PaperWorkload().Grand,
			Loops:    float64(w.Loops),
		}
		for j, r := range res {
			k := fig5Models[g[0]+j]
			est := costmodel.Estimate(kindToCostModel(k), scaled, wl)
			points[size*len(fig5Models)+g[0]+j] = Fig6Point{
				Model:     k.String(),
				N:         n,
				Loops:     w.Loops,
				Measured:  r[cobench.Q2b].Pages,
				BestCase:  est.Q2b,
				WorstCase: est.Q2a,
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.fig6 = points
	return points, nil
}

func kindToCostModel(k store.Kind) costmodel.Model {
	switch k {
	case store.DSM:
		return costmodel.DSM
	case store.DASDBSDSM:
		return costmodel.DASDBSDSM
	case store.NSM:
		return costmodel.NSM
	case store.NSMIndex:
		return costmodel.NSMIndex
	default:
		return costmodel.DASDBSNSM
	}
}

// RenderFigure6 renders the Figure 6 data, one table per model.
func RenderFigure6(points []Fig6Point) []*report.Table {
	var out []*report.Table
	for _, k := range fig5Models {
		t := &report.Table{
			Title:  fmt.Sprintf("Figure 6 (%s): query 2b pages/loop vs database size (loops = N/5)", k),
			Header: []string{"N", "loops", "measured", "best case", "worst case"},
			Notes: []string{
				"best case: Eq. 8 cache model with derived layout constants; worst case: the query 2a estimate (§5.4)",
			},
		}
		for _, p := range points {
			if p.Model != k.String() {
				continue
			}
			t.AddRow(report.Int(p.N), report.Int(p.Loops),
				report.Num(p.Measured), report.Num(p.BestCase), report.Num(p.WorstCase))
		}
		out = append(out, t)
	}
	return out
}

// Table3Sections renders the analytical-estimate block: Table 3 under the
// paper's and under the derived layout constants plus the analytical
// I/O-call counterpart.
func (s *Suite) Table3Sections() ([]*report.Table, error) {
	out := []*report.Table{
		RenderTable3("Table 3 (paper layout constants): estimated page I/Os", s.Table3Paper()),
	}
	t3d, err := s.Table3Derived()
	if err != nil {
		return nil, err
	}
	out = append(out, RenderTable3("Table 3 (derived layout constants): estimated page I/Os", t3d))
	out = append(out, RenderTable3("Analytical I/O calls (Table 5 counterpart, paper layout constants)",
		costmodel.EstimateAllCalls(costmodel.PaperParams(), costmodel.PaperWorkload())))
	return out, nil
}

// CostSections renders the estimated-device-time tables for the 1990 disk
// and a modern flash device.
func (s *Suite) CostSections() ([]*report.Table, error) {
	var out []*report.Table
	for _, dev := range []struct {
		name string
		w    DeviceWeights
	}{
		{"Estimated device time, 1990 disk", Disk1990()},
		{"Estimated device time, modern flash", DiskModern()},
	} {
		rows, err := s.TableCosts(dev.w)
		if err != nil {
			return nil, err
		}
		out = append(out, RenderTableCosts(dev.name, dev.w, rows))
	}
	return out, nil
}
