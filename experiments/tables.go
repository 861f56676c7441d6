package experiments

import (
	"fmt"
	"math"
	"sort"

	"complexobj/cobench"
	"complexobj/costmodel"
	"complexobj/internal/fanout"
	"complexobj/internal/store"
	"complexobj/report"
)

var queryLabels = []string{"1a", "1b", "1c", "2a", "2b", "3a", "3b"}

// Table1 renders the parameter glossary (the paper's Table 1).
func Table1() *report.Table {
	t := &report.Table{
		Title:  "Table 1: explanation of the (nested tuple) parameters",
		Header: []string{"PARAM", "MEANING"},
	}
	t.AddRow("g", "number of tuples in a cluster of tuples")
	t.AddRow("k", "nr. of (small) tuples stored on a single page")
	t.AddRow("m", "nr. of pages for storing an entire relation")
	t.AddRow("p", "nr. of pages to store a single (large) tuple")
	t.AddRow("t", "total number of tuples to be retrieved")
	t.AddRow("C_X", "cost related to the aspect X")
	t.AddRow("S_X", "size in byte of a unit called X")
	t.AddRow("X_f", "number of events X under condition f")
	return t
}

// RelationRow is one line of Table 2: the measured physical layout of one
// relation under one storage model, next to the paper's published constants
// where these are legible (NaN otherwise).
type RelationRow struct {
	Model string
	store.RelationSize

	PaperTupleBytes float64
	PaperK          float64
	PaperP          float64
	PaperM          float64
}

// paperTable2 holds the legible cells of the paper's Table 2 keyed by
// relation name; garbled cells are NaN.
var paperTable2 = map[string][4]float64{ // S_tuple, k, p, m
	"DSM_Station":           {6078, nan(), 4, 6000},
	"DASDBS-DSM_Station":    {6078, nan(), 4, 6000},
	"NSM_Station":           {nan(), 13, nan(), 116},
	"NSM+index_Station":     {nan(), 13, nan(), 116},
	"NSM_Connection":        {170, 11, nan(), 559},
	"NSM+index_Connection":  {170, 11, nan(), 559},
	"NSM_Sightseeing":       {456, 4, nan(), 2813},
	"NSM+index_Sightseeing": {456, 4, nan(), 2813},
	"DASDBS-NSM_Connection": {nan(), nan(), nan(), 500},
}

func nan() float64 { return math.NaN() }

// Table2 measures the physical sizes of every relation (the paper's
// Table 2: "Average DASDBS-sizes of benchmark tuples"). Like the paper's
// table it lists each distinct layout once: DASDBS-DSM shares DSM's layout
// and NSM+index shares NSM's.
func (s *Suite) Table2() ([]RelationRow, error) {
	var rows []RelationRow
	for _, k := range []store.Kind{store.DSM, store.NSM, store.DASDBSNSM} {
		rep, err := s.layoutSizes(k)
		if err != nil {
			return nil, err
		}
		for _, rel := range rep.Relations {
			row := RelationRow{
				Model:           rep.Model,
				RelationSize:    rel,
				PaperTupleBytes: nan(),
				PaperK:          nan(),
				PaperP:          nan(),
				PaperM:          nan(),
			}
			lookup := rel.Name
			if _, ok := paperTable2[lookup]; !ok {
				lookup = rep.Model + "_" + trimPrefix(rel.Name)
			}
			if ref, ok := paperTable2[lookup]; ok {
				row.PaperTupleBytes, row.PaperK, row.PaperP, row.PaperM = ref[0], ref[1], ref[2], ref[3]
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func trimPrefix(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '_' {
			return name[i+1:]
		}
	}
	return name
}

// RenderTable2 renders Table 2 rows.
func RenderTable2(rows []RelationRow) *report.Table {
	t := &report.Table{
		Title: "Table 2: average sizes of benchmark tuples (measured vs paper)",
		Header: []string{"RELATION", "TUPLES/OBJ", "TUPLES", "S_tuple", "k", "p", "m",
			"paper S", "paper k", "paper p", "paper m"},
		Notes: []string{
			"paper columns show the legible cells of the published Table 2; our leaner NF² encoding has no DASDBS internal overheads, hence smaller S_tuple/m",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Name,
			report.Num(r.TuplesPerObject), report.Int(r.Tuples), report.Num(r.AvgTupleBytes),
			numOrDash(r.K), numOrDash(r.P), report.Int(r.M),
			report.Num(r.PaperTupleBytes), report.Num(r.PaperK), report.Num(r.PaperP), report.Num(r.PaperM))
	}
	return t
}

func numOrDash(v float64) string {
	if v == 0 {
		return "-"
	}
	return report.Num(v)
}

// DerivedParams builds cost-model parameters from the actually loaded
// databases, so that the analytical and simulated numbers in EXPERIMENTS.md
// share one set of layout constants.
func (s *Suite) DerivedParams() (costmodel.Params, costmodel.Workload, error) {
	gs, err := s.ExtensionStats()
	if err != nil {
		return costmodel.Params{}, costmodel.Workload{}, err
	}
	w := costmodel.Workload{
		N:        float64(gs.N),
		Children: gs.AvgConnections,
		Grand:    gs.AvgGrand,
		Loops:    float64(s.cfg.Workload.Loops),
	}
	if w.Loops == 0 {
		w.Loops = float64(cobench.LoopsFor(gs.N))
	}

	p := costmodel.Params{Name: "derived", SPage: 2012}
	dsm, err := s.layoutSizes(store.DSM)
	if err != nil {
		return p, w, err
	}
	drel := dsm.Relations[0]
	perObj := float64(drel.M) / float64(gs.N)
	p.DirectP = perObj
	p.DirectUsefulP = perObj // our layout has no artificial allocation waste
	p.DirectNavP = 2
	p.DirectRootP = 2
	p.DirectM = float64(drel.M)
	p.DirectUsefulM = float64(drel.M)

	nsm, err := s.layoutSizes(store.NSM)
	if err != nil {
		return p, w, err
	}
	for _, rel := range nsm.Relations {
		r := costmodel.Rel{PerObject: rel.TuplesPerObject, K: rel.K, P: rel.P, M: float64(rel.M)}
		switch trimPrefix(rel.Name) {
		case "Station":
			p.NSMStation = r
		case "Platform":
			p.NSMPlatform = r
		case "Connection":
			p.NSMConnection = r
		case "Sightseeing":
			p.NSMSightseeing = r
		}
	}
	dnsm, err := s.layoutSizes(store.DASDBSNSM)
	if err != nil {
		return p, w, err
	}
	for _, rel := range dnsm.Relations {
		r := costmodel.Rel{PerObject: rel.TuplesPerObject, K: rel.K, P: rel.P, M: float64(rel.M)}
		switch trimPrefix(rel.Name) {
		case "Station":
			p.DNSMStation = r
		case "Platform":
			p.DNSMPlatform = r
		case "Connection":
			p.DNSMConnection = r
		case "Sightseeing":
			p.DNSMSightseeing = r
		}
	}
	return p, w, nil
}

// Table3Paper returns the analytical estimates under the paper's published
// layout constants.
func (s *Suite) Table3Paper() []costmodel.QueryEstimates {
	return costmodel.EstimateAll(costmodel.PaperParams(), costmodel.PaperWorkload())
}

// Table3Derived returns the analytical estimates under the layout
// constants measured from our own loaded databases.
func (s *Suite) Table3Derived() ([]costmodel.QueryEstimates, error) {
	p, w, err := s.DerivedParams()
	if err != nil {
		return nil, err
	}
	return costmodel.EstimateAll(p, w), nil
}

// RenderTable3 renders one block of Table 3.
func RenderTable3(title string, rows []costmodel.QueryEstimates) *report.Table {
	t := &report.Table{
		Title:  title,
		Header: append([]string{"MODEL"}, queryLabels...),
		Notes: []string{
			"queries 1a-1c per object, 2a-3b per loop; all estimates best case (large cache, Eq. 8 for loop queries)",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Model.String(),
			report.Num(r.Q1a), report.Num(r.Q1b), report.Num(r.Q1c),
			report.Num(r.Q2a), report.Num(r.Q2b), report.Num(r.Q3a), report.Num(r.Q3b))
	}
	return t
}

// measuredTable renders one Tables-4/5/6 style grid for the chosen metric.
func (m *Matrix) measuredTable(title string, metric func(Measured) float64) *report.Table {
	t := &report.Table{
		Title:  title,
		Header: append([]string{"MODEL"}, queryLabels...),
	}
	for _, model := range m.Models() {
		cells := []string{model}
		for _, q := range queryLabels {
			r, ok := m.Get(model, q)
			if !ok || !r.Supported {
				cells = append(cells, "-")
				continue
			}
			cells = append(cells, report.Num(metric(r)))
		}
		t.AddRow(cells...)
	}
	return t
}

// Table4 is the measured number of physical page I/Os X_{I/O pages}.
func (m *Matrix) Table4() *report.Table {
	return m.measuredTable("Table 4: measured physical page I/Os (pages per object/loop)",
		func(r Measured) float64 { return r.Pages })
}

// Table5 is the measured number of I/O calls X_{I/O calls}.
func (m *Matrix) Table5() *report.Table {
	return m.measuredTable("Table 5: measured I/O calls (calls per object/loop)",
		func(r Measured) float64 { return r.Calls })
}

// Table6 is the measured number of buffer fixes (the paper's CPU-load
// indicator).
func (m *Matrix) Table6() *report.Table {
	return m.measuredTable("Table 6: measured buffer fixes (fixes per object/loop)",
		func(r Measured) float64 { return r.Fixes })
}

// RankRow is one line of Table 8: per-cost-factor symbols from best (++)
// to worst (--), derived from the measured matrix like the paper's
// qualitative judgement.
type RankRow struct {
	Model     string
	PagesRank int
	CallsRank int
	FixesRank int
	JoinRank  int
	Pages     float64
	Calls     float64
	Fixes     float64
}

// joinRanks encodes the paper's qualitative join-cost judgement (§6): the
// direct models need no joins at all; DASDBS-NSM joins with address
// support; pure NSM "suffers from these joins".
var joinRanks = map[string]int{
	"DSM": 1, "DASDBS-DSM": 1, "DASDBS-NSM": 3, "NSM+index": 4, "NSM": 5,
}

// Table8 computes the overall evaluation from the measured matrix. Models
// are ranked per cost factor by the sum of their per-unit costs over
// queries 1b, 1c, 2b and 3b — one representative of each access pattern,
// including the value query that drives the paper's "with NSM ... small
// queries [are] inefficient" judgement.
func (m *Matrix) Table8() ([]RankRow, error) {
	models := m.Models()
	rows := make([]RankRow, 0, len(models))
	for _, model := range models {
		var r RankRow
		r.Model = model
		r.JoinRank = joinRanks[model]
		for _, q := range []string{"1b", "1c", "2b", "3b"} {
			c, ok := m.Get(model, q)
			if !ok || !c.Supported {
				return nil, fmt.Errorf("experiments: missing cell %s/%s", model, q)
			}
			r.Pages += c.Pages
			r.Calls += c.Calls
			r.Fixes += c.Fixes
		}
		rows = append(rows, r)
	}
	rank := func(get func(RankRow) float64, set func(*RankRow, int)) {
		idx := make([]int, len(rows))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return get(rows[idx[a]]) < get(rows[idx[b]]) })
		for pos, i := range idx {
			set(&rows[i], pos+1)
		}
	}
	rank(func(r RankRow) float64 { return r.Pages }, func(r *RankRow, v int) { r.PagesRank = v })
	rank(func(r RankRow) float64 { return r.Calls }, func(r *RankRow, v int) { r.CallsRank = v })
	rank(func(r RankRow) float64 { return r.Fixes }, func(r *RankRow, v int) { r.FixesRank = v })
	return rows, nil
}

// symbol maps a 1-based rank among n models to the paper's ++/--
// notation.
func symbol(rank, n int) string {
	if n <= 1 {
		return "++"
	}
	switch {
	case rank == 1:
		return "++"
	case rank == 2:
		return "+"
	case rank == n:
		return "--"
	case rank == n-1:
		return "-"
	default:
		return "o"
	}
}

// RenderTable8 renders the overall evaluation.
func RenderTable8(rows []RankRow) *report.Table {
	t := &report.Table{
		Title:  "Table 8: overall evaluation of all storage models (derived from measurements)",
		Header: []string{"MODEL", "buf fixes", "C_join", "I/O calls", "I/O pages", "overall"},
		Notes: []string{
			"symbols rank the models per cost factor from best (++) to worst (--), as in the paper;",
			"C_join is the paper's qualitative judgement (joins were excluded from measurements there too)",
		},
	}
	n := len(rows)
	type scored struct {
		row   RankRow
		total int
	}
	var sc []scored
	for _, r := range rows {
		sc = append(sc, scored{r, r.PagesRank + r.CallsRank + r.FixesRank + r.JoinRank})
	}
	// Ties break on the join/processor cost: the paper's C_total folds in
	// the join effort it calls "unacceptably large with NSM", preferring
	// the address-supported joins of DASDBS-NSM.
	sort.SliceStable(sc, func(a, b int) bool {
		if sc[a].total != sc[b].total {
			return sc[a].total < sc[b].total
		}
		return sc[a].row.JoinRank < sc[b].row.JoinRank
	})
	for pos, s := range sc {
		t.AddRow(s.row.Model,
			symbol(s.row.FixesRank, n), symbol(s.row.JoinRank, n),
			symbol(s.row.CallsRank, n), symbol(s.row.PagesRank, n),
			fmt.Sprintf("#%d", pos+1))
	}
	return t
}

// SkewRow is one line of Table 7: query 2 costs under the default and the
// skewed extension.
type SkewRow struct {
	Model      string
	DefaultQ2a float64
	DefaultQ2b float64
	SkewQ2a    float64
	SkewQ2b    float64
}

// Table7 compares the default extension with the §5.5 data-skew extension
// (probability 20%, fanout 8) on the navigation queries. The default
// columns come from the (already parallel) matrix; the skew runs fan out
// over the suite's worker pool, one unit per layout group, on one skewed
// extension generated for all of them.
func (s *Suite) Table7() ([]SkewRow, error) {
	if s.table7 != nil {
		return s.table7, nil
	}
	m, err := s.Matrix()
	if err != nil {
		return nil, err
	}
	opts, err := s.storeOptions()
	if err != nil {
		return nil, err
	}
	skewGen := s.cfg.Gen.Skewed()
	var kinds []store.Kind
	for _, k := range store.AllKinds() {
		if k != store.NSM { // the paper drops pure NSM after §5.2
			kinds = append(kinds, k)
		}
	}
	// Hold the skewed extension for every layout group, as Figure 5 holds
	// its columns': a group starting after another finished must not
	// generate it again.
	_, release, err := s.extension(skewGen)
	if err != nil {
		return nil, err
	}
	defer release()
	rows := make([]SkewRow, len(kinds))
	groups := layoutGroups(kinds)
	err = fanout.Run(len(groups), s.workers(), func(u int) error {
		g := groups[u]
		res, err := s.runQueries(kinds[g[0]:g[1]], opts, skewGen, s.cfg.Workload, cobench.Q2a, cobench.Q2b)
		if err != nil {
			return err
		}
		for j, skew := range res {
			k := kinds[g[0]+j]
			def2a, _ := m.Get(k.String(), "2a")
			def2b, _ := m.Get(k.String(), "2b")
			rows[g[0]+j] = SkewRow{
				Model:      k.String(),
				DefaultQ2a: def2a.Pages,
				DefaultQ2b: def2b.Pages,
				SkewQ2a:    skew[cobench.Q2a].Pages,
				SkewQ2b:    skew[cobench.Q2b].Pages,
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.table7 = rows
	return rows, nil
}

// RenderTable7 renders the data-skew comparison.
func RenderTable7(rows []SkewRow) *report.Table {
	t := &report.Table{
		Title:  "Table 7: query 2 under data skew (prob 0.2, fanout 8) vs default extension",
		Header: []string{"MODEL", "2a default", "2b default", "2a skew", "2b skew"},
		Notes: []string{
			"means are unchanged by construction; the paper found 'the overall figures are similar to those of the original benchmark'",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Model, report.Num(r.DefaultQ2a), report.Num(r.DefaultQ2b),
			report.Num(r.SkewQ2a), report.Num(r.SkewQ2b))
	}
	return t
}
