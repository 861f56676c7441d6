package experiments

import "complexobj/report"

// Section is one independently computable group of output tables. The
// static Titles mirror the titles the Build function emits, so a consumer
// (cotables -only) can decide whether a section is worth computing at all
// before doing any work — the lever that lets a snapshot replay of
// Tables 4-6 skip every other experiment. TestSectionTitlesMatch pins the
// static titles against the actually emitted ones.
type Section struct {
	// Titles are the titles (or static title prefixes, where a title
	// embeds computed values) of the tables Build produces.
	Titles []string
	// Build computes and renders the section's tables.
	Build func(*Suite) ([]*report.Table, error)
}

// Sections lists every table and figure of the reproduction in paper
// order; cotables builds the ones its filter matches.
func Sections() []Section {
	one := func(f func(*Suite) (*report.Table, error)) func(*Suite) ([]*report.Table, error) {
		return func(s *Suite) ([]*report.Table, error) {
			t, err := f(s)
			if err != nil {
				return nil, err
			}
			return []*report.Table{t}, nil
		}
	}
	return []Section{
		{Titles: []string{"Table 1: explanation of the (nested tuple) parameters"},
			Build: one(func(*Suite) (*report.Table, error) { return Table1(), nil })},
		{Titles: []string{"Table 2: average sizes of benchmark tuples (measured vs paper)"},
			Build: one(func(s *Suite) (*report.Table, error) {
				rows, err := s.Table2()
				if err != nil {
					return nil, err
				}
				return RenderTable2(rows), nil
			})},
		{Titles: []string{
			"Table 3 (paper layout constants): estimated page I/Os",
			"Table 3 (derived layout constants): estimated page I/Os",
			"Analytical I/O calls (Table 5 counterpart, paper layout constants)",
		}, Build: (*Suite).Table3Sections},
		{Titles: []string{
			"Table 4: measured physical page I/Os (pages per object/loop)",
			"Table 5: measured I/O calls (calls per object/loop)",
			"Table 6: measured buffer fixes (fixes per object/loop)",
		}, Build: func(s *Suite) ([]*report.Table, error) {
			m, err := s.Matrix()
			if err != nil {
				return nil, err
			}
			return []*report.Table{m.Table4(), m.Table5(), m.Table6()}, nil
		}},
		{Titles: []string{"Table 7: query 2 under data skew (prob 0.2, fanout 8) vs default extension"},
			Build: one(func(s *Suite) (*report.Table, error) {
				rows, err := s.Table7()
				if err != nil {
					return nil, err
				}
				return RenderTable7(rows), nil
			})},
		{Titles: []string{"Table 8: overall evaluation of all storage models (derived from measurements)"},
			Build: one(func(s *Suite) (*report.Table, error) {
				m, err := s.Matrix()
				if err != nil {
					return nil, err
				}
				rows, err := m.Table8()
				if err != nil {
					return nil, err
				}
				return RenderTable8(rows), nil
			})},
		{Titles: []string{
			"Figure 5 (query 1c): measured page I/Os while max sightseeings is 0, 15, 30",
			"Figure 5 (query 2b): measured page I/Os while max sightseeings is 0, 15, 30",
			"Figure 5 (query 3b): measured page I/Os while max sightseeings is 0, 15, 30",
		}, Build: func(s *Suite) ([]*report.Table, error) {
			cells, err := s.Figure5()
			if err != nil {
				return nil, err
			}
			return RenderFigure5(cells), nil
		}},
		{Titles: []string{
			"Figure 6 (DSM): query 2b pages/loop vs database size (loops = N/5)",
			"Figure 6 (DASDBS-DSM): query 2b pages/loop vs database size (loops = N/5)",
			"Figure 6 (DASDBS-NSM): query 2b pages/loop vs database size (loops = N/5)",
		}, Build: func(s *Suite) ([]*report.Table, error) {
			points, err := s.Figure6()
			if err != nil {
				return nil, err
			}
			return RenderFigure6(points), nil
		}},
		// Title prefix only: the full title embeds the measured index size.
		{Titles: []string{"Ablation: NSM+index with counted B+-tree index I/O"},
			Build: one(func(s *Suite) (*report.Table, error) {
				a, err := s.IndexAblation()
				if err != nil {
					return nil, err
				}
				return RenderIndexAblation(a), nil
			})},
		{Titles: []string{"Ablation: query 2b pages/loop under LRU vs Clock replacement"},
			Build: one(func(s *Suite) (*report.Table, error) {
				rows, err := s.PolicyAblation()
				if err != nil {
					return nil, err
				}
				return RenderPolicyAblation(rows), nil
			})},
		{Titles: []string{"Estimated device time, 1990 disk", "Estimated device time, modern flash"},
			Build: (*Suite).CostSections},
		{Titles: []string{"Extension (§5.5 remark): query 2b I/O balance over a shared-nothing cluster"},
			Build: one(func(s *Suite) (*report.Table, error) {
				dist, err := s.DistributionAblation(8)
				if err != nil {
					return nil, err
				}
				return RenderDistribution(dist), nil
			})},
		{Titles: []string{
			"Extension: query 2b pages/loop vs buffer size, N=1500 (DSM)",
			"Extension: query 2b pages/loop vs buffer size, N=1500 (DASDBS-DSM)",
			"Extension: query 2b pages/loop vs buffer size, N=1500 (DASDBS-NSM)",
		},
			Build: func(s *Suite) ([]*report.Table, error) {
				bs, err := s.BufferSweep()
				if err != nil {
					return nil, err
				}
				return RenderBufferSweep(bs), nil
			}},
	}
}
