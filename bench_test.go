// Micro-benchmarks of the substrate that no other file has: warm
// navigation and whole-object assembly per model, NF² encode/decode,
// generation, the analytical model, a B+-tree lookup. The tables,
// figures and ablations themselves are timed by the repository benchmark
// (bench/, workload "tables"), not here.
package complexobj_test

import (
	"testing"

	"complexobj"
	"complexobj/cobench"
	"complexobj/costmodel"
	"complexobj/nf2"
)

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
// object from its tuple tree: the library's Encode, which the storage
// models' appender-built records are tested against.
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

// --- durable commit path ----------------------------------------------------

// BenchmarkCheckpoint measures one CommitLog.Checkpoint of a small durable
// directory (one DSM model of 100 stations) whose generation holds
// committed pages over its floor: the checkpoint file streamed from the
// floor and the page table through the log's one write buffer, synced and
// renamed into place. B/op is what a write buffer allocated per file or
// per checkpoint shows in.
func BenchmarkCheckpoint(b *testing.B) {
	const kind = complexobj.DSM
	dir := b.TempDir()
	db, err := complexobj.OpenLoaded(kind, complexobj.Options{}, cobench.DefaultConfig().WithN(100))
	if err != nil {
		b.Fatal(err)
	}
	err = complexobj.SeedCommitDir(dir, db)
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		b.Fatal(err)
	}
	clog, err := complexobj.OpenCommitLog(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer clog.Close()
	base, err := clog.OpenBase(kind, "")
	if err != nil {
		b.Fatal(err)
	}
	defer base.Close()
	if _, err := clog.Recover(); err != nil {
		b.Fatal(err)
	}
	w := cobench.Workload{Loops: 4, Samples: 1, Seed: 1993}
	for i := 0; i < 8; i++ {
		w.Seed++
		v, err := base.NewView(complexobj.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := v.Run(cobench.Q3a, w); err != nil {
			b.Fatal(err)
		}
		if _, err := v.Commit(clog); err != nil {
			b.Fatal(err)
		}
		if err := v.Close(); err != nil {
			b.Fatal(err)
		}
	}
	if base.DeltaPages() == 0 {
		b.Fatal("the commits left no page over the floor")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := clog.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}
