package experiments

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"complexobj/internal/disk"
)

// The paper-scale suite is expensive enough (~seconds) to share across
// tests; every experiment is deterministic, so sharing is safe.
var (
	suiteOnce sync.Once
	suite     *Suite
)

func paperSuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() {
		suite = New(DefaultConfig())
	})
	return suite
}

// TestMain closes the shared suite, releasing its cached bases, and then
// holds the whole package to the loader-arena ledger: those arenas live
// outside the Go heap, so one a test left open is a leak no collection
// reclaims.
func TestMain(m *testing.M) {
	code := m.Run()
	if suite != nil {
		suite.Close()
	}
	if n := disk.LiveArenaBytes(); code == 0 && n != 0 {
		fmt.Fprintf(os.Stderr, "%d loader-arena bytes live after every test and the shared suite closed\n", n)
		code = 1
	}
	os.Exit(code)
}

func cell(t *testing.T, m *Matrix, model, query string) Measured {
	t.Helper()
	c, ok := m.Get(model, query)
	if !ok {
		t.Fatalf("missing cell %s/%s", model, query)
	}
	return c
}

func TestMatrixComplete(t *testing.T) {
	m, err := paperSuite(t).Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Rows) != 5*7 {
		t.Fatalf("matrix has %d rows, want 35", len(m.Rows))
	}
	if len(m.Models()) != 5 {
		t.Fatalf("models: %v", m.Models())
	}
	nsm1a := cell(t, m, "NSM", "1a")
	if nsm1a.Supported {
		t.Error("pure NSM 1a should be unsupported")
	}
	if _, ok := m.Get("DSM", "9x"); ok {
		t.Error("bogus cell found")
	}
}

// TestTable4PaperShape asserts the headline measured results against the
// paper's Table 4 values where legible, with generous tolerances for the
// encoding differences documented in EXPERIMENTS.md.
func TestTable4PaperShape(t *testing.T) {
	m, err := paperSuite(t).Matrix()
	if err != nil {
		t.Fatal(err)
	}
	within := func(name string, got, want, relTol float64) {
		t.Helper()
		if math.Abs(got-want)/want > relTol {
			t.Errorf("%s = %.2f, paper ~%.2f (tol %.0f%%)", name, got, want, relTol*100)
		}
	}
	// Direct models: ~3-4 pages per object on query 1; full scans for 1b.
	dsm1a := cell(t, m, "DSM", "1a").Pages
	if dsm1a < 2.5 || dsm1a > 4.5 {
		t.Errorf("DSM 1a = %.2f, want 3-4 pages/object", dsm1a)
	}
	// NSM+index 1a: the paper's 5.96.
	within("NSM+index 1a", cell(t, m, "NSM+index", "1a").Pages, 5.96, 0.10)
	// DASDBS-NSM 1a: the paper's 5.00 (ours has one more sightseeing page).
	within("DASDBS-NSM 1a", cell(t, m, "DASDBS-NSM", "1a").Pages, 5.0, 0.30)
	// Warm navigation, the paper's Table 7 row for the default extension:
	// DSM 57.7, DASDBS-DSM 20.6, DASDBS-NSM 2.12 pages/loop.
	within("DSM 2b", cell(t, m, "DSM", "2b").Pages, 57.7, 0.20)
	within("DASDBS-DSM 2b", cell(t, m, "DASDBS-DSM", "2b").Pages, 20.6, 0.10)
	within("DASDBS-NSM 2b", cell(t, m, "DASDBS-NSM", "2b").Pages, 2.12, 0.20)
}

func TestTable4Orderings(t *testing.T) {
	m, err := paperSuite(t).Matrix()
	if err != nil {
		t.Fatal(err)
	}
	get := func(model, q string) float64 { return cell(t, m, model, q).Pages }
	// Query 2b: DASDBS-NSM < NSM family < DASDBS-DSM < DSM.
	if !(get("DASDBS-NSM", "2b") < get("DASDBS-DSM", "2b") &&
		get("DASDBS-DSM", "2b") < get("DSM", "2b")) {
		t.Error("query 2b ordering violated")
	}
	if get("NSM", "2b") >= get("DASDBS-DSM", "2b") {
		t.Error("normalized navigation not cheaper than direct partial access")
	}
	// Query 1b: pure NSM scans everything; indexes collapse the cost.
	if get("NSM", "1b") < 10*get("NSM+index", "1b") {
		t.Error("pure NSM value query not dramatically worse")
	}
	// Query 3: the DASDBS-DSM write-through anomaly. Its writes are "larger
	// than expected" — the best-case estimate is one distinct root page per
	// grand-child over the run (~5/loop), the page pool makes it one write
	// per update operation (~16.7/loop) — and dwarf the normalized models'.
	ddsmW := cell(t, m, "DASDBS-DSM", "3b").PagesWritten
	if ddsmW < 14 {
		t.Errorf("DASDBS-DSM 3b writes %.2f/loop, want ~one per updated tuple (anomaly)", ddsmW)
	}
	for _, norm := range []string{"NSM", "NSM+index", "DASDBS-NSM"} {
		if c := cell(t, m, norm, "3b"); c.PagesWritten >= ddsmW/5 {
			t.Errorf("3b writes: %s %.2f not dwarfed by DASDBS-DSM %.2f",
				norm, c.PagesWritten, ddsmW)
		}
	}
	// Normalized root updates batch: under one write per loop.
	if w := cell(t, m, "DASDBS-NSM", "3b").PagesWritten; w > 1 {
		t.Errorf("DASDBS-NSM 3b writes %.2f/loop, want < 1 (shared root pages)", w)
	}
}

func TestTable5CallShapes(t *testing.T) {
	m, err := paperSuite(t).Matrix()
	if err != nil {
		t.Fatal(err)
	}
	// §5.2: "With DSM, about 2 pages are read per I/O call"; "NSM even
	// reads only a single page per retrieval call".
	dsm := cell(t, m, "DSM", "2b")
	ratio := dsm.Pages / dsm.Calls
	if ratio < 1.4 || ratio > 2.6 {
		t.Errorf("DSM pages/call = %.2f, want ~2", ratio)
	}
	nsm := cell(t, m, "NSM", "2b")
	if r := nsm.Pages / nsm.Calls; math.Abs(r-1) > 0.05 {
		t.Errorf("NSM pages/call = %.2f, want 1", r)
	}
	// Writes batch more pages per call than reads for DSM's replace-set
	// updates (§5.2: "With the write operation, more pages are handled in
	// a single I/O call").
	q3 := cell(t, m, "DSM", "3b")
	if q3.WriteCalls <= 0 {
		t.Fatal("DSM 3b has no write calls")
	}
	if perCall := q3.PagesWritten / q3.WriteCalls; perCall < 1.2 {
		t.Errorf("DSM 3b pages per write call = %.2f, want > 1.2 (batched)", perCall)
	}
}

func TestTable6FixShapes(t *testing.T) {
	m, err := paperSuite(t).Matrix()
	if err != nil {
		t.Fatal(err)
	}
	// DASDBS-NSM uses the fewest page fixes on the navigation loop; the
	// direct models the most (paper §6: "DASDBS-NSM uses the least page
	// fixes").
	fixes := func(model string) float64 { return cell(t, m, model, "2b").Fixes }
	least := fixes("DASDBS-NSM")
	for _, other := range []string{"DSM", "DASDBS-DSM", "NSM", "NSM+index"} {
		if fixes(other) <= least {
			t.Errorf("2b fixes: %s %.1f <= DASDBS-NSM %.1f", other, fixes(other), least)
		}
	}
	if fixes("DSM") <= fixes("DASDBS-DSM") {
		t.Error("DSM should fix more pages than DASDBS-DSM on navigation")
	}
}

func TestTable2AgainstPaper(t *testing.T) {
	rows, err := paperSuite(t).Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+4+4 {
		t.Fatalf("Table 2 has %d rows", len(rows))
	}
	byName := map[string]RelationRow{}
	for _, r := range rows {
		byName[r.Model+"/"+r.Name] = r
	}
	// The flat NSM geometry is close to the paper's: the sightseeing
	// relation must land at k=4, like the published Table 2.
	see := byName["NSM/NSM_Sightseeing"]
	if see.K != 4 {
		t.Errorf("NSM_Sightseeing k = %.1f, paper 4", see.K)
	}
	if math.Abs(float64(see.M)-2813)/2813 > 0.05 {
		t.Errorf("NSM_Sightseeing m = %d, paper 2813", see.M)
	}
	// Direct stations span multiple pages.
	dsm := byName["DSM/DSM_Station"]
	if dsm.P < 3 || dsm.P > 4.5 {
		t.Errorf("DSM_Station p = %.2f, want 3-4.5 (paper 4)", dsm.P)
	}
	if dsm.Tuples != 1500 {
		t.Errorf("DSM_Station tuples = %d", dsm.Tuples)
	}
	// Paper reference columns attached where legible.
	if math.IsNaN(byName["NSM/NSM_Connection"].PaperM) {
		t.Error("paper m for NSM_Connection missing")
	}
}

func TestTable3DerivedTracksMeasurements(t *testing.T) {
	s := paperSuite(t)
	rows, err := s.Table3Derived()
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	for _, est := range rows {
		if est.Model.String() == "DSM'" {
			continue // no measured counterpart
		}
		// Query 1c is scan-bound and must agree tightly; the estimate is
		// exact arithmetic over the same layout.
		meas := cell(t, m, est.Model.String(), "1c").Pages
		if math.Abs(est.Q1c-meas)/meas > 0.05 {
			t.Errorf("%s 1c: estimated %.2f vs measured %.2f", est.Model, est.Q1c, meas)
		}
		// Query 2a (cold navigation) within 25%: the estimator is the
		// paper's best-case arithmetic.
		meas2a := cell(t, m, est.Model.String(), "2a").Pages
		if math.Abs(est.Q2a-meas2a)/meas2a > 0.25 {
			t.Errorf("%s 2a: estimated %.2f vs measured %.2f", est.Model, est.Q2a, meas2a)
		}
	}
	// Warm loops: the cache-friendly models must sit near the best case;
	// the direct models exceed it (cache overflow, §5.4).
	byModel := map[string]float64{}
	for _, est := range rows {
		byModel[est.Model.String()] = est.Q2b
	}
	for _, model := range []string{"NSM", "NSM+index", "DASDBS-NSM"} {
		meas := cell(t, m, model, "2b").Pages
		if math.Abs(byModel[model]-meas)/meas > 0.30 {
			t.Errorf("%s 2b: estimated %.2f vs measured %.2f", model, byModel[model], meas)
		}
	}
	if meas := cell(t, m, "DSM", "2b").Pages; meas < 2*byModel["DSM"] {
		t.Errorf("DSM 2b measured %.2f does not exceed best case %.2f (overflow expected)",
			meas, byModel["DSM"])
	}
}

func TestTable7SkewKeepsAverages(t *testing.T) {
	rows, err := paperSuite(t).Table7()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("Table 7 rows = %d (pure NSM must be dropped)", len(rows))
	}
	for _, r := range rows {
		if r.Model == "NSM" {
			t.Error("pure NSM present in Table 7")
		}
		// "the overall figures are similar to those of the original
		// benchmark" — per-loop warm numbers within 35%.
		if math.Abs(r.SkewQ2b-r.DefaultQ2b)/r.DefaultQ2b > 0.35 {
			t.Errorf("%s: skew 2b %.2f vs default %.2f", r.Model, r.SkewQ2b, r.DefaultQ2b)
		}
	}
}

func TestTable8MatchesPaperConclusion(t *testing.T) {
	m, err := paperSuite(t).Matrix()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := m.Table8()
	if err != nil {
		t.Fatal(err)
	}
	rendered := RenderTable8(rows)
	order := make([]string, 0, len(rendered.Rows))
	for _, r := range rendered.Rows {
		order = append(order, r[0])
	}
	// §6: "DASDBS-NSM seems to be the best and NSM the worst. Also,
	// DASDBS-DSM is (more powerful thus) better than DSM."
	if order[0] != "DASDBS-NSM" {
		t.Errorf("overall best = %s, want DASDBS-NSM (order %v)", order[0], order)
	}
	if order[len(order)-1] != "NSM" {
		t.Errorf("overall worst = %s, want NSM (order %v)", order[len(order)-1], order)
	}
	pos := map[string]int{}
	for i, m := range order {
		pos[m] = i
	}
	if pos["DASDBS-DSM"] > pos["DSM"] {
		t.Error("DASDBS-DSM not ranked above DSM")
	}
}

func TestFigure5Claims(t *testing.T) {
	cells, err := paperSuite(t).Figure5()
	if err != nil {
		t.Fatal(err)
	}
	get := func(model string, maxSee int) Fig5Cell {
		for _, c := range cells {
			if c.Model == model && c.MaxSeeing == maxSee {
				return c
			}
		}
		t.Fatalf("missing cell %s/%d", model, maxSee)
		return Fig5Cell{}
	}
	// (a) "The larger the sub-objects not used, the larger the advantage
	// of DASDBS-DSM over DSM."
	adv0 := get("DSM", 0).Q2b - get("DASDBS-DSM", 0).Q2b
	adv15 := get("DSM", 15).Q2b - get("DASDBS-DSM", 15).Q2b
	adv30 := get("DSM", 30).Q2b - get("DASDBS-DSM", 30).Q2b
	if !(adv0 < adv15 && adv15 < adv30) {
		t.Errorf("DASDBS-DSM advantage not growing: %.2f, %.2f, %.2f", adv0, adv15, adv30)
	}
	// (b) "With DASDBS-NSM, the results for query 2b and query 3b are
	// independent of the number of Sightseeings."
	for _, q := range []func(Fig5Cell) float64{
		func(c Fig5Cell) float64 { return c.Q2b },
		func(c Fig5Cell) float64 { return c.Q3b },
	} {
		v0, v15, v30 := q(get("DASDBS-NSM", 0)), q(get("DASDBS-NSM", 15)), q(get("DASDBS-NSM", 30))
		if math.Abs(v0-v15) > 0.02*v15 || math.Abs(v30-v15) > 0.02*v15 {
			t.Errorf("DASDBS-NSM not flat across sightseeings: %.3f %.3f %.3f", v0, v15, v30)
		}
	}
	// (c) "for smaller objects the advantage of DASDBS-NSM over the direct
	// storage models melts away."
	gapSmall := get("DSM", 0).Q2b - get("DASDBS-NSM", 0).Q2b
	gapBig := get("DSM", 15).Q2b - get("DASDBS-NSM", 15).Q2b
	if gapSmall > gapBig/5 {
		t.Errorf("small-object advantage did not melt away: %.2f vs %.2f", gapSmall, gapBig)
	}
	// (d) "DASDBS-DSM is bad with updates, in particular for small
	// objects": with maxSeeing=0 its 3b beats nobody — it must be worse
	// than DSM's.
	if get("DASDBS-DSM", 0).Q3b <= get("DSM", 0).Q3b {
		t.Errorf("small-object update anomaly missing: DASDBS-DSM %.2f <= DSM %.2f",
			get("DASDBS-DSM", 0).Q3b, get("DSM", 0).Q3b)
	}
	// (e) With the update query 3b, the advantage of DASDBS-NSM over the
	// direct models remains (at default size).
	if get("DASDBS-NSM", 15).Q3b >= get("DASDBS-DSM", 15).Q3b {
		t.Error("DASDBS-NSM lost its update advantage")
	}
}

func TestFigure6Claims(t *testing.T) {
	points, err := paperSuite(t).Figure6()
	if err != nil {
		t.Fatal(err)
	}
	get := func(model string, n int) Fig6Point {
		for _, p := range points {
			if p.Model == model && p.N == n {
				return p
			}
		}
		t.Fatalf("missing point %s/%d", model, n)
		return Fig6Point{}
	}
	// Below cache capacity the measured values sit at the best case.
	for _, model := range []string{"DSM", "DASDBS-DSM", "DASDBS-NSM"} {
		for _, n := range []int{100, 200} {
			p := get(model, n)
			if math.Abs(p.Measured-p.BestCase)/p.BestCase > 0.20 {
				t.Errorf("%s N=%d: measured %.2f far from best case %.2f",
					model, n, p.Measured, p.BestCase)
			}
		}
	}
	// DSM is the most cache-sensitive: by N=1500 it sits well above best
	// case and approaches (without exceeding) the worst case.
	dsm := get("DSM", 1500)
	if dsm.Measured < 2.5*dsm.BestCase {
		t.Errorf("DSM@1500 measured %.2f, best %.2f: overflow effect missing",
			dsm.Measured, dsm.BestCase)
	}
	if dsm.Measured > 1.05*dsm.WorstCase {
		t.Errorf("DSM@1500 measured %.2f above worst case %.2f", dsm.Measured, dsm.WorstCase)
	}
	// DSM degrades monotonically past the cache size.
	if !(get("DSM", 400).Measured < get("DSM", 700).Measured &&
		get("DSM", 700).Measured < get("DSM", 1500).Measured) {
		t.Error("DSM degradation not monotone in database size")
	}
	// DASDBS-NSM is the least sensitive: flat at best case everywhere.
	for _, n := range Fig6Sizes {
		p := get("DASDBS-NSM", n)
		if math.Abs(p.Measured-p.BestCase)/p.BestCase > 0.20 {
			t.Errorf("DASDBS-NSM N=%d: measured %.2f vs best %.2f", n, p.Measured, p.BestCase)
		}
	}
	// Sensitivity ordering at full size: DSM > DASDBS-DSM > DASDBS-NSM.
	ratio := func(model string) float64 {
		p := get(model, 1500)
		return p.Measured / p.BestCase
	}
	if !(ratio("DSM") > ratio("DASDBS-DSM") && ratio("DASDBS-DSM") > ratio("DASDBS-NSM")) {
		t.Errorf("cache sensitivity ordering violated: %.2f %.2f %.2f",
			ratio("DSM"), ratio("DASDBS-DSM"), ratio("DASDBS-NSM"))
	}
}

func TestRendering(t *testing.T) {
	s := paperSuite(t)
	tables, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) < 12 {
		t.Fatalf("All() produced %d tables", len(tables))
	}
	for _, tb := range tables {
		if tb.Title == "" {
			t.Error("table without title")
		}
		if txt := tb.Text(); !strings.Contains(txt, tb.Header[0]) {
			t.Errorf("%s: text render missing header", tb.Title)
		}
		if md := tb.Markdown(); !strings.Contains(md, "| --- |") && !strings.Contains(md, "| --- | ---") {
			t.Errorf("%s: markdown render missing separator", tb.Title)
		}
		if csv := tb.CSV(); len(csv) == 0 {
			t.Errorf("%s: empty CSV", tb.Title)
		}
	}
}

func TestExtensionStats(t *testing.T) {
	gs, err := paperSuite(t).ExtensionStats()
	if err != nil {
		t.Fatal(err)
	}
	if gs.N != 1500 {
		t.Errorf("extension size %d", gs.N)
	}
	if gs.AvgConnections < 3.8 || gs.AvgConnections > 4.4 {
		t.Errorf("avg connections %.2f", gs.AvgConnections)
	}
}

func TestDefaultsFilledIn(t *testing.T) {
	s := New(Config{})
	if s.cfg.Gen.N != 1500 || s.cfg.BufferPages != 1200 {
		t.Errorf("zero config not defaulted: %+v", s.cfg)
	}
}

func TestTable1Static(t *testing.T) {
	tb := Table1()
	if len(tb.Rows) != 8 {
		t.Errorf("Table 1 rows = %d", len(tb.Rows))
	}
	txt := tb.Text()
	for _, p := range []string{"g", "k", "m", "p", "t"} {
		if !strings.Contains(txt, p) {
			t.Errorf("Table 1 missing parameter %s", p)
		}
	}
}

func TestIndexAblation(t *testing.T) {
	a, err := paperSuite(t).IndexAblation()
	if err != nil {
		t.Fatal(err)
	}
	if a.IndexPages <= 0 || a.TreeHeight < 2 {
		t.Errorf("index stats: %d pages, height %d", a.IndexPages, a.TreeHeight)
	}
	byQuery := map[string]IndexAblationRow{}
	for _, r := range a.Rows {
		byQuery[r.Query] = r
	}
	// Counted index I/O makes every positional access dearer...
	for _, q := range []string{"1a", "2a", "2b", "3b"} {
		r := byQuery[q]
		if r.CountedPages <= r.FreePages {
			t.Errorf("%s: counted %.2f <= free %.2f", q, r.CountedPages, r.FreePages)
		}
		if r.CountedFixes <= r.FreeFixes {
			t.Errorf("%s fixes: counted %.2f <= free %.2f", q, r.CountedFixes, r.FreeFixes)
		}
	}
	// ...but stays within the same order of magnitude on the warm loop
	// (hot index pages cache).
	if r := byQuery["2b"]; r.CountedPages > 2.5*r.FreePages {
		t.Errorf("2b: counted %.2f blows up over free %.2f", r.CountedPages, r.FreePages)
	}
	// The value query flips: tree descent instead of a root-relation scan.
	if r := byQuery["1b"]; r.CountedPages >= r.FreePages/3 {
		t.Errorf("1b: counted %.2f did not beat scan-based %.2f", r.CountedPages, r.FreePages)
	}
	tbl := RenderIndexAblation(a)
	if len(tbl.Rows) != len(a.Rows) {
		t.Error("render lost rows")
	}
}

// TestIndexAblationAndTable7Golden pins the rendered index ablation and
// Table 7 rows bit-for-bit. Both tables exercise the NSM+index probe path
// (counted B+-tree descents and the groupRIDs scratch), so any change to
// the decode or index-probe code that shifts a single counter shows up
// here as a cell diff. The values are backend-invariant: counters are
// logical, so a private counted load and a counted view of the NSM base
// report the same digits.
func TestIndexAblationAndTable7Golden(t *testing.T) {
	a, err := paperSuite(t).IndexAblation()
	if err != nil {
		t.Fatal(err)
	}
	wantAblation := [][]string{
		{"1a", "5.950", "15.12", "14.57", "26.75"},
		{"1b", "104.4", "14.60", "113.4", "27.60"},
		{"2a", "26.88", "48.55", "46.20", "110.3"},
		{"2b", "1.757", "2.167", "43.74", "104.5"},
		{"3b", "2.117", "2.527", "78.89", "209.5"},
	}
	if got := RenderIndexAblation(a).Rows; !reflect.DeepEqual(got, wantAblation) {
		t.Errorf("index ablation rows changed:\ngot  %v\nwant %v", got, wantAblation)
	}
	if a.IndexPages != 344 || a.TreeHeight != 2 {
		t.Errorf("index footprint: %d pages, height %d (want 344, 2)", a.IndexPages, a.TreeHeight)
	}
	rows, err := paperSuite(t).Table7()
	if err != nil {
		t.Fatal(err)
	}
	wantT7 := [][]string{
		{"DSM", "75.78", "51.89", "100.6", "53.94"},
		{"DASDBS-DSM", "41.60", "19.67", "55.00", "20.79"},
		{"NSM+index", "26.88", "1.757", "30.48", "1.747"},
		{"DASDBS-NSM", "25.73", "1.900", "30.52", "2.013"},
	}
	if got := RenderTable7(rows).Rows; !reflect.DeepEqual(got, wantT7) {
		t.Errorf("Table 7 rows changed:\ngot  %v\nwant %v", got, wantT7)
	}
}

func TestPolicyAblation(t *testing.T) {
	rows, err := paperSuite(t).PolicyAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("policy ablation rows: %d", len(rows))
	}
	for _, r := range rows {
		if r.LRU <= 0 || r.Clock <= 0 {
			t.Errorf("%s: empty measurements", r.Model)
		}
		// The paper's conclusions must be policy-robust: within 15%.
		diff := r.Clock - r.LRU
		if diff < 0 {
			diff = -diff
		}
		if diff/r.LRU > 0.15 {
			t.Errorf("%s: LRU %.2f vs Clock %.2f differ by >15%%", r.Model, r.LRU, r.Clock)
		}
	}
	tbl := RenderPolicyAblation(rows)
	if len(tbl.Rows) != 3 {
		t.Error("render lost rows")
	}
}

func TestTableCosts(t *testing.T) {
	s := paperSuite(t)
	rows, err := s.TableCosts(Disk1990())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("cost rows: %d", len(rows))
	}
	byModel := map[string]CostRow{}
	for _, r := range rows {
		byModel[r.Model] = r
	}
	// On a seek-dominated device the per-call weight matters: pure NSM's
	// one-page-per-call scans make its value query slower than DSM's even
	// though it reads fewer pages (the paper's §5.2 point about calls).
	if byModel["NSM"].Ms["1b"] <= byModel["DSM"].Ms["1b"] {
		t.Errorf("1990 disk: NSM 1b %.0f ms not above DSM %.0f ms",
			byModel["NSM"].Ms["1b"], byModel["DSM"].Ms["1b"])
	}
	// The navigation ordering survives any positive weights.
	if !(byModel["DASDBS-NSM"].Ms["2b"] < byModel["DASDBS-DSM"].Ms["2b"] &&
		byModel["DASDBS-DSM"].Ms["2b"] < byModel["DSM"].Ms["2b"]) {
		t.Error("2b cost ordering violated")
	}
	if !math.IsNaN(byModel["NSM"].Ms["1a"]) {
		t.Error("NSM 1a should be NaN")
	}
	tbl := RenderTableCosts("x", Disk1990(), rows)
	if len(tbl.Rows) != 5 {
		t.Error("render lost rows")
	}
}

func TestCharts(t *testing.T) {
	s := paperSuite(t)
	f5, err := s.ChartFigure5()
	if err != nil {
		t.Fatal(err)
	}
	if len(f5) != 3 {
		t.Fatalf("figure 5 charts: %d", len(f5))
	}
	f6, err := s.ChartFigure6()
	if err != nil {
		t.Fatal(err)
	}
	if len(f6) != 3 {
		t.Fatalf("figure 6 charts: %d", len(f6))
	}
	for _, c := range append(f5, f6...) {
		if !strings.Contains(c, "|") || !strings.Contains(c, "*") {
			t.Errorf("chart looks empty:\n%s", c)
		}
	}
}

func TestDistributionAblation(t *testing.T) {
	s := paperSuite(t)
	rows, err := s.DistributionAblation(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("distribution rows: %d", len(rows))
	}
	var def, skew NodeBalance
	for _, r := range rows {
		switch r.Extension {
		case "default":
			def = r
		case "skew":
			skew = r
		}
	}
	// Cluster-wide averages stay comparable (same expected workload)...
	if math.Abs(skew.MeanPages-def.MeanPages)/def.MeanPages > 0.25 {
		t.Errorf("mean pages diverge: %.0f vs %.0f", def.MeanPages, skew.MeanPages)
	}
	// ...but the skewed extension produces heavier single-loop bursts on
	// individual nodes (the paper's §5.5 conjecture).
	if skew.HottestLoopPages <= 1.3*def.HottestLoopPages {
		t.Errorf("skew hottest loop %.0f not heavier than default %.0f",
			skew.HottestLoopPages, def.HottestLoopPages)
	}
	if def.CV < 0 || skew.CV < 0 {
		t.Error("negative CV")
	}
	if _, err := s.DistributionAblation(1); err == nil {
		t.Error("single-node cluster accepted")
	}
	if len(RenderDistribution(rows).Rows) != 2 {
		t.Error("render lost rows")
	}
}

func TestBufferSweep(t *testing.T) {
	points, err := paperSuite(t).BufferSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(BufferSizes)*3 {
		t.Fatalf("buffer sweep points: %d", len(points))
	}
	get := func(model string, bp int) BufferPoint {
		for _, p := range points {
			if p.Model == model && p.BufferPages == bp {
				return p
			}
		}
		t.Fatalf("missing point %s/%d", model, bp)
		return BufferPoint{}
	}
	for _, model := range []string{"DSM", "DASDBS-DSM", "DASDBS-NSM"} {
		// Monotone (within noise): more cache never makes it worse by >5%.
		prev := get(model, BufferSizes[0])
		for _, bp := range BufferSizes[1:] {
			cur := get(model, bp)
			if cur.Measured > prev.Measured*1.05 {
				t.Errorf("%s: measured grew with cache %d->%d: %.2f -> %.2f",
					model, prev.BufferPages, bp, prev.Measured, cur.Measured)
			}
			if cur.HitRatio+1e-9 < prev.HitRatio-0.02 {
				t.Errorf("%s: hit ratio fell with more cache", model)
			}
			prev = cur
		}
		// A big-enough cache reaches the best case.
		big := get(model, 4800)
		if big.Measured > 1.25*big.BestCase {
			t.Errorf("%s: 4800-page cache still %.2f vs best %.2f",
				model, big.Measured, big.BestCase)
		}
		// A tiny cache sits near the worst case for the direct models.
		if model != "DASDBS-NSM" {
			small := get(model, 150)
			if small.Measured < 0.7*small.WorstCase {
				t.Errorf("%s: 150-page cache %.2f far below worst case %.2f",
					model, small.Measured, small.WorstCase)
			}
		}
	}
	// DASDBS-NSM needs far less cache to hit its best case than DSM.
	if get("DASDBS-NSM", 600).Measured > 1.2*get("DASDBS-NSM", 4800).Measured {
		t.Error("DASDBS-NSM still cache-bound at 600 pages")
	}
	if len(RenderBufferSweep(points)) != 3 {
		t.Error("render lost tables")
	}
}
