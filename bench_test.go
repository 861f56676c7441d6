// Benchmark harness: one testing.B benchmark per table and figure of the
// paper, plus micro-benchmarks of the substrate. Each iteration of a
// table/figure benchmark regenerates that experiment from scratch
// (generation, load, queries) and reports the experiment's headline
// numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// both times the harness and reprints the reproduced values. Run with
// -benchtime=1x for a single reproduction pass.
package complexobj_test

import (
	"testing"

	"complexobj"
	"complexobj/cobench"
	"complexobj/costmodel"
	"complexobj/experiments"
	"complexobj/nf2"
)

// benchSuite builds a fresh suite per iteration so no cached results leak
// between iterations.
func benchConfig() experiments.Config {
	return experiments.DefaultConfig()
}

// BenchmarkTable2Sizes regenerates the physical layout survey of Table 2:
// every storage model loaded with the full 1500-station extension.
func BenchmarkTable2Sizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.New(benchConfig())
		rows, err := s.Table2()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Relation == "DSM_Station" {
				b.ReportMetric(float64(r.M), "DSM-pages")
			}
		}
	}
}

// BenchmarkTable3Analytical evaluates the full analytical model (Equations
// 2-8 for all six model rows) under the paper's layout constants.
func BenchmarkTable3Analytical(b *testing.B) {
	p, w := costmodel.PaperParams(), costmodel.PaperWorkload()
	var rows []costmodel.QueryEstimates
	for i := 0; i < b.N; i++ {
		rows = costmodel.EstimateAll(p, w)
	}
	for _, r := range rows {
		if r.Model == costmodel.DSM {
			b.ReportMetric(r.Q2b, "DSM-q2b-pages/loop")
		}
	}
}

// BenchmarkTable4PageIOs reproduces the measured page-I/O matrix (Table 4;
// Tables 5 and 6 come from the same run). One iteration is the complete
// 5-model × 7-query benchmark at paper scale.
func BenchmarkTable4PageIOs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.New(benchConfig())
		m, err := s.Matrix()
		if err != nil {
			b.Fatal(err)
		}
		if c, ok := m.Get("DASDBS-NSM", "2b"); ok {
			b.ReportMetric(c.Pages, "DNSM-q2b-pages/loop")
		}
		if c, ok := m.Get("DSM", "2b"); ok {
			b.ReportMetric(c.Pages, "DSM-q2b-pages/loop")
		}
	}
}

// BenchmarkTable5IOCalls isolates the I/O-call metric of Table 5 on the
// loop queries (the full matrix is exercised by BenchmarkTable4PageIOs).
func BenchmarkTable5IOCalls(b *testing.B) {
	gen := cobench.DefaultConfig()
	w := cobench.DefaultWorkload()
	for i := 0; i < b.N; i++ {
		db, err := complexobj.OpenLoaded(complexobj.DSM, complexobj.Options{}, gen)
		if err != nil {
			b.Fatal(err)
		}
		res, err := db.Run(cobench.Q2b, w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Calls, "DSM-q2b-calls/loop")
		b.ReportMetric(res.Pages/res.Calls, "DSM-pages/call")
	}
}

// BenchmarkTable6BufferFixes isolates the buffer-fix metric of Table 6.
func BenchmarkTable6BufferFixes(b *testing.B) {
	gen := cobench.DefaultConfig()
	w := cobench.DefaultWorkload()
	for i := 0; i < b.N; i++ {
		db, err := complexobj.OpenLoaded(complexobj.DASDBSNSM, complexobj.Options{}, gen)
		if err != nil {
			b.Fatal(err)
		}
		res, err := db.Run(cobench.Q2b, w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Fixes, "DNSM-q2b-fixes/loop")
	}
}

// BenchmarkTable7DataSkew reproduces the §5.5 data-skew comparison.
func BenchmarkTable7DataSkew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.New(benchConfig())
		rows, err := s.Table7()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Model == "DASDBS-NSM" {
				b.ReportMetric(r.SkewQ2b, "DNSM-q2b-skew-pages/loop")
			}
		}
	}
}

// BenchmarkTable8Ranking derives the overall qualitative evaluation.
func BenchmarkTable8Ranking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.New(benchConfig())
		m, err := s.Matrix()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Table8(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5ObjectSize reproduces the object-size sweep of Figure 5
// (max sightseeings 0/15/30 × three models × queries 1c, 2b, 3b).
func BenchmarkFigure5ObjectSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.New(benchConfig())
		cells, err := s.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Model == "DSM" && c.MaxSeeing == 30 {
				b.ReportMetric(c.Q2b, "DSM-q2b-maxSee30-pages/loop")
			}
		}
	}
}

// BenchmarkFigure6Caching reproduces the database-size/cache sweep of
// Figure 6 (six sizes × three models, measured vs analytical).
func BenchmarkFigure6Caching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.New(benchConfig())
		points, err := s.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.Model == "DSM" && p.N == 1500 {
				b.ReportMetric(p.Measured/p.BestCase, "DSM-overflow-factor")
			}
		}
	}
}

// --- per-model micro benchmarks --------------------------------------------

// BenchmarkNavigateWarm measures one warm navigation step per model on a
// mid-size database: the hot operation of queries 2 and 3.
func BenchmarkNavigateWarm(b *testing.B) {
	gen := cobench.DefaultConfig().WithN(300)
	for _, kind := range complexobj.AllModels() {
		b.Run(kind.String(), func(b *testing.B) {
			db, err := complexobj.OpenLoaded(kind, complexobj.Options{}, gen)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := db.Navigate(i % 300); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFetchByAddress measures whole-object assembly per model.
func BenchmarkFetchByAddress(b *testing.B) {
	gen := cobench.DefaultConfig().WithN(300)
	for _, kind := range complexobj.AllModels() {
		if kind == complexobj.NSM {
			continue // no address access
		}
		b.Run(kind.String(), func(b *testing.B) {
			db, err := complexobj.OpenLoaded(kind, complexobj.Options{}, gen)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.FetchByAddress(i % 300); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodeStation measures NF² encoding of an average benchmark
// object (the serialization cost under every storage model).
func BenchmarkEncodeStation(b *testing.B) {
	stations, err := cobench.Generate(cobench.DefaultConfig().WithN(50))
	if err != nil {
		b.Fatal(err)
	}
	tup := stations[7].Tuple()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cobench.StationType.Encode(tup); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeStation measures full NF² decoding.
func BenchmarkDecodeStation(b *testing.B) {
	stations, err := cobench.Generate(cobench.DefaultConfig().WithN(50))
	if err != nil {
		b.Fatal(err)
	}
	buf, err := cobench.StationType.Encode(stations[7].Tuple())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cobench.StationType.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodePartial measures projecting a single attribute out of an
// encoded object — the partial-access path DASDBS-DSM relies on.
func BenchmarkDecodePartial(b *testing.B) {
	stations, err := cobench.Generate(cobench.DefaultConfig().WithN(50))
	if err != nil {
		b.Fatal(err)
	}
	buf, err := cobench.StationType.Encode(stations[7].Tuple())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cobench.StationType.DecodeAttr(buf, cobench.StKey); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerate measures extension generation throughput.
func BenchmarkGenerate(b *testing.B) {
	cfg := cobench.DefaultConfig().WithN(500)
	for i := 0; i < b.N; i++ {
		if _, err := cobench.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCostModel measures a single full-model estimate (all queries,
// one storage model).
func BenchmarkCostModel(b *testing.B) {
	p, w := costmodel.PaperParams(), costmodel.PaperWorkload()
	for i := 0; i < b.N; i++ {
		costmodel.Estimate(costmodel.DASDBSNSM, p, w)
	}
}

var sinkTuple nf2.Tuple

// BenchmarkQuickNF2RoundTrip measures encode+decode of a small nested
// tuple, the unit cost behind every storage operation.
func BenchmarkQuickNF2RoundTrip(b *testing.B) {
	inner := nf2.MustTupleType("I",
		nf2.Attr{Name: "A", Type: nf2.IntType()},
		nf2.Attr{Name: "B", Type: nf2.StringType(32)},
	)
	tt := nf2.MustTupleType("T",
		nf2.Attr{Name: "K", Type: nf2.IntType()},
		nf2.Attr{Name: "R", Type: nf2.RelType(inner)},
	)
	tup := nf2.NewTuple(nf2.IntValue(1), nf2.RelValue([]nf2.Tuple{
		nf2.NewTuple(nf2.IntValue(2), nf2.StringValue("hello")),
		nf2.NewTuple(nf2.IntValue(3), nf2.StringValue("world")),
	}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := tt.Encode(tup)
		if err != nil {
			b.Fatal(err)
		}
		out, err := tt.Decode(buf)
		if err != nil {
			b.Fatal(err)
		}
		sinkTuple = out
	}
}

// BenchmarkIndexAblation reproduces the index-accounting ablation: the
// indexed model with free in-memory tables vs counted B+-tree I/O.
func BenchmarkIndexAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.New(benchConfig())
		a, err := s.IndexAblation()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range a.Rows {
			if r.Query == "2b" {
				b.ReportMetric(r.CountedPages, "counted-q2b-pages/loop")
				b.ReportMetric(r.FreePages, "free-q2b-pages/loop")
			}
		}
	}
}

// BenchmarkPolicyAblation reproduces the LRU-vs-Clock ablation.
func BenchmarkPolicyAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.New(benchConfig())
		rows, err := s.PolicyAblation()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Model == "DSM" {
				b.ReportMetric(r.Clock/r.LRU, "DSM-clock/lru")
			}
		}
	}
}

// BenchmarkBTreeGet measures one warm B+-tree lookup.
func BenchmarkBTreeGet(b *testing.B) {
	db, err := complexobj.OpenLoaded(complexobj.NSMIndex,
		complexobj.Options{CountIndexIO: true}, cobench.DefaultConfig().WithN(500))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.ReadRoot(i % 500); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistributionAblation reproduces the §5.5 shared-nothing
// balance extension (default vs skew over 8 nodes).
func BenchmarkDistributionAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.New(benchConfig())
		rows, err := s.DistributionAblation(8)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Extension == "skew" {
				b.ReportMetric(r.HottestLoopPages, "skew-hottest-loop-pages")
			}
		}
	}
}

// BenchmarkBufferSweep reproduces the buffer-size sweep extension.
func BenchmarkBufferSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.New(benchConfig())
		points, err := s.BufferSweep()
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.Model == "DSM" && p.BufferPages == 4800 {
				b.ReportMetric(p.Measured, "DSM-q2b-bigcache-pages/loop")
			}
		}
	}
}
