package complexobj_test

import (
	"fmt"
	"slices"
	"strings"

	"complexobj"
	"complexobj/cobench"
	"complexobj/costmodel"
	"complexobj/nf2"
	"complexobj/report"
)

// Example demonstrates the core loop of the library: load a benchmark
// extension under a storage model, navigate the object graph, and read
// the paper's I/O metrics.
func Example() {
	gen := cobench.DefaultConfig().WithN(100)
	db, err := complexobj.OpenLoaded(complexobj.DASDBSNSM, complexobj.Options{BufferPages: 256}, gen)
	if err != nil {
		panic(err)
	}
	defer db.Close()
	_, children, err := db.Navigate(0)
	if err != nil {
		panic(err)
	}
	s := db.Stats()
	fmt.Printf("navigated to %d children with %d page reads in %d calls\n",
		len(children), s.PagesRead, s.ReadCalls)
	// Output:
	// navigated to 7 children with 2 page reads in 2 calls
}

// ExampleDB_Run executes one of the paper's benchmark queries and prints
// the normalized measurement.
func ExampleDB_Run() {
	db, err := complexobj.OpenLoaded(complexobj.DSM, complexobj.Options{},
		cobench.DefaultConfig().WithN(200))
	if err != nil {
		panic(err)
	}
	defer db.Close()
	res, err := db.Run(cobench.Q1c, cobench.Workload{Loops: 40, Samples: 10, Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Printf("query %s scanned %d objects\n", res.Query, int(res.Units))
	// Output:
	// query 1c scanned 200 objects
}

// ExampleEstimate evaluates the paper's analytical cost model: the DSM row
// of Table 3 under the published layout constants.
func ExampleEstimate() {
	est := costmodel.Estimate(costmodel.DSM, costmodel.PaperParams(), costmodel.PaperWorkload())
	fmt.Printf("DSM query 1a: %.2f pages per object\n", est.Q1a)
	fmt.Printf("DSM query 2b: %.1f pages per loop\n", est.Q2b)
	// Output:
	// DSM query 1a: 4.00 pages per object
	// DSM query 2b: 19.7 pages per loop
}

// Example_quickstart opens a database under the direct storage model,
// loads a small benchmark extension, fetches and navigates objects,
// updates a root record, and reads the I/O statistics the library counts.
func Example_quickstart() {
	// A small railway database: 100 stations, the paper's distribution
	// parameters, deterministic seed.
	gen := cobench.DefaultConfig().WithN(100)
	db, err := complexobj.OpenLoaded(complexobj.DSM, complexobj.Options{BufferPages: 256}, gen)
	if err != nil {
		panic(err)
	}
	defer db.Close()
	fmt.Printf("loaded %d stations under %s\n\n", db.NumObjects(), db.Kind())

	// Fetch one complex object by its address (the paper's query 1a).
	station, err := db.FetchByAddress(7)
	if err != nil {
		panic(err)
	}
	fmt.Printf("station %d: %q with %d platforms, %d sightseeings\n",
		station.Key, station.Name, station.NoPlatform, station.NoSeeing)

	// Navigate its connections (query 2's inner step): only the needed
	// attributes are read.
	root, children, err := db.Navigate(7)
	if err != nil {
		panic(err)
	}
	fmt.Printf("navigating %q -> %d children\n", root.Name, len(children))
	for _, child := range children {
		r, err := db.ReadRoot(int(child))
		if err != nil {
			panic(err)
		}
		fmt.Printf("  connects to %q\n", r.Name)
	}

	// Update a root record (query 3 style) and persist it.
	err = db.UpdateRoots([]int32{7}, func(_ int32, r *cobench.RootRecord) {
		r.Name = "Renamed Centraal"
	})
	if err != nil {
		panic(err)
	}
	if err := db.Flush(); err != nil {
		panic(err)
	}

	// The statistics are the paper's currency: pages, I/O calls, fixes.
	s := db.Stats()
	fmt.Printf("\nI/O so far: %d pages read, %d written, %d calls, %d buffer fixes (%d hits)\n",
		s.PagesRead, s.PagesWritten, s.Calls(), s.BufferFixes, s.BufferHits)

	// Run a full benchmark query with proper normalization.
	res, err := db.Run(cobench.Q2b, cobench.Workload{Loops: 20, Samples: 10, Seed: 42})
	if err != nil {
		panic(err)
	}
	fmt.Printf("query 2b: %.2f pages per navigation loop\n", res.Pages)
	// Output:
	// loaded 100 stations under DSM
	//
	// station 10007: "Geneva Centraal 7 (castle line)" with 1 platforms, 5 sightseeings
	// navigating "Geneva Centraal 7 (castle line)" -> 2 children
	//   connects to "Luzern Centraal 2 (express line)"
	//   connects to "Lausanne Centraal 50 (terrace line)"
	//
	// I/O so far: 10 pages read, 3 written, 7 calls, 19 buffer fixes (9 hits)
	// query 2b: 22.85 pages per navigation loop
}

// Example_caching retells the paper's Figure 6: sweep the database size
// past the buffer capacity and watch the direct storage models fall off
// the analytical best case toward the worst case while DASDBS-NSM stays
// flat.
func Example_caching() {
	const bufferPages = 300 // deliberately small so the overflow shows early
	sizes := []int{50, 100, 200, 400, 800}

	fmt.Printf("query 2b pages/loop with a %d-page cache (loops = N/5):\n\n", bufferPages)
	fmt.Printf("%6s", "N")
	models := []complexobj.ModelKind{complexobj.DSM, complexobj.DASDBSDSM, complexobj.DASDBSNSM}
	for _, m := range models {
		fmt.Printf(" %12s", m)
	}
	fmt.Println()

	results := map[complexobj.ModelKind][]float64{}
	for _, n := range sizes {
		fmt.Printf("%6d", n)
		for _, kind := range models {
			gen := cobench.DefaultConfig().WithN(n)
			db, err := complexobj.OpenLoaded(kind, complexobj.Options{BufferPages: bufferPages}, gen)
			if err != nil {
				panic(err)
			}
			res, err := db.Run(cobench.Q2b, cobench.Workload{Loops: cobench.LoopsFor(n), Seed: 7})
			if err != nil {
				panic(err)
			}
			db.Close()
			results[kind] = append(results[kind], res.Pages)
			fmt.Printf(" %12.2f", res.Pages)
		}
		fmt.Println()
	}

	// Analytical context: best and worst case at the largest size.
	p := costmodel.PaperParams()
	fmt.Println("\nanalytical anchors at N=1500 (paper layout constants):")
	for _, m := range []costmodel.Model{costmodel.DSM, costmodel.DASDBSDSM, costmodel.DASDBSNSM} {
		est := costmodel.Estimate(m, p, costmodel.PaperWorkload())
		fmt.Printf("  %-12s best case %6.2f   worst case %6.2f pages/loop\n", m, est.Q2b, est.Q2a)
	}

	// A crude trend chart for the most cache-sensitive model.
	fmt.Println("\nDSM degradation as the database outgrows the cache:")
	top := slices.Max(results[complexobj.DSM])
	for i, n := range sizes {
		v := results[complexobj.DSM][i]
		bar := strings.Repeat("#", int(v/top*40))
		fmt.Printf("%6d | %-40s %.1f\n", n, bar, v)
	}
	// Output:
	// query 2b pages/loop with a 300-page cache (loops = N/5):
	//
	//      N          DSM   DASDBS-DSM   DASDBS-NSM
	//     50        15.80         8.80         2.30
	//    100        14.95         8.25         1.80
	//    200        30.57         9.12         1.82
	//    400        52.88        20.88         1.94
	//    800        64.83        30.52         1.97
	//
	// analytical anchors at N=1500 (paper layout constants):
	//   DSM          best case  19.75   worst case  87.49 pages/loop
	//   DASDBS-DSM   best case   9.87   worst case  43.75 pages/loop
	//   DASDBS-NSM   best case   1.81   worst case  25.09 pages/loop
	//
	// DSM degradation as the database outgrows the cache:
	//     50 | #########                                15.8
	//    100 | #########                                14.9
	//    200 | ##################                       30.6
	//    400 | ################################         52.9
	//    800 | ######################################## 64.8
}

// Example_modelCompare runs the complete seven-query benchmark of the
// paper's §2.2 across all five storage models and prints a Table-4-style
// comparison: the headline experiment, at a scale that runs in well under
// a second.
func Example_modelCompare() {
	gen := cobench.DefaultConfig().WithN(500)
	w := cobench.Workload{Loops: 100, Samples: 20, Seed: 42}

	pages := &report.Table{
		Title:  "physical page I/Os per object (1a-1c) / per loop (2a-3b)",
		Header: []string{"MODEL", "1a", "1b", "1c", "2a", "2b", "3a", "3b"},
	}
	writes := &report.Table{
		Title:  "page writes per loop (update queries)",
		Header: []string{"MODEL", "3a", "3b"},
	}
	for _, kind := range complexobj.AllModels() {
		db, err := complexobj.OpenLoaded(kind, complexobj.Options{BufferPages: 400}, gen)
		if err != nil {
			panic(err)
		}
		results, err := db.RunBenchmark(w)
		if err != nil {
			panic(err)
		}
		db.Close()
		row := []string{kind.String()}
		wrow := []string{kind.String()}
		for _, r := range results {
			if !r.Supported {
				row = append(row, "-")
				continue
			}
			row = append(row, report.Num(r.Pages))
			if r.Query == cobench.Q3a || r.Query == cobench.Q3b {
				wrow = append(wrow, report.Num(r.PagesWritten))
			}
		}
		pages.AddRow(row...)
		writes.AddRow(wrow...)
	}
	for _, t := range []*report.Table{pages, writes} {
		for _, line := range strings.Split(t.Text(), "\n") {
			fmt.Println(strings.TrimRight(line, " ")) // padded header cells
		}
	}
	fmt.Println("reading guide (paper §6): DASDBS-NSM wins navigation; pure NSM loses value")
	fmt.Println("queries (full scans); DASDBS-DSM beats DSM on reads but pays a write-through")
	fmt.Println("page pool per updated tuple on query 3.")
	// Output:
	// physical page I/Os per object (1a-1c) / per loop (2a-3b)
	// MODEL       1a     1b     1c     2a     2b     3a     3b
	// ----------  -----  -----  -----  -----  -----  -----  -----
	// DSM         3.600  1668   3.336  65.85  60.22  131.4  104.8
	// DASDBS-DSM  3.600  1668   3.336  35.50  22.61  58.05  37.68
	// NSM         -      1187   2.374  23.70  2.430  39.60  2.720
	// NSM+index   5.800  39.20  2.374  19.30  1.840  34.85  2.130
	// DASDBS-NSM  5.900  39.40  3.240  18.60  1.950  33.70  2.260
	//
	// page writes per loop (update queries)
	// MODEL       3a     3b
	// ----------  -----  -----
	// DSM         58.10  52.54
	// DASDBS-DSM  18.10  17.87
	// NSM         13.15  0.340
	// NSM+index   13.15  0.340
	// DASDBS-NSM  13.15  0.340
	//
	// reading guide (paper §6): DASDBS-NSM wins navigation; pure NSM loses value
	// queries (full scans); DASDBS-DSM beats DSM on reads but pays a write-through
	// page pool per updated tuple on query 3.
}

// Example_nf2Assembly uses the complex object model beyond the railway
// benchmark: nf2 is generic, so this models a CAD-style assembly
// hierarchy (the other application domain the paper's introduction
// motivates), encodes it to the binary format the storage engine uses,
// and decodes one attribute without materializing the rest.
func Example_nf2Assembly() {
	// Schema: an assembly of parts, each with nested fasteners — a
	// three-level NF² hierarchy with a LINK to a supplier object.
	fastener := nf2.MustTupleType("Fastener",
		nf2.Attr{Name: "Kind", Type: nf2.StringType(16)},
		nf2.Attr{Name: "TorqueNm", Type: nf2.IntType()},
	)
	part := nf2.MustTupleType("Part",
		nf2.Attr{Name: "PartNo", Type: nf2.IntType()},
		nf2.Attr{Name: "Name", Type: nf2.StringType(40)},
		nf2.Attr{Name: "Supplier", Type: nf2.LinkType()},
		nf2.Attr{Name: "Fasteners", Type: nf2.RelType(fastener)},
	)
	assembly := nf2.MustTupleType("Assembly",
		nf2.Attr{Name: "Id", Type: nf2.IntType()},
		nf2.Attr{Name: "Title", Type: nf2.StringType(60)},
		nf2.Attr{Name: "Parts", Type: nf2.RelType(part)},
	)
	fmt.Println("schema:", assembly)

	gearbox := nf2.NewTuple(
		nf2.IntValue(4711),
		nf2.StringValue("gearbox, 6-speed"),
		nf2.RelValue([]nf2.Tuple{
			nf2.NewTuple(nf2.IntValue(1), nf2.StringValue("housing"), nf2.LinkValue(12),
				nf2.RelValue([]nf2.Tuple{
					nf2.NewTuple(nf2.StringValue("M8 bolt"), nf2.IntValue(25)),
					nf2.NewTuple(nf2.StringValue("M8 bolt"), nf2.IntValue(25)),
				})),
			nf2.NewTuple(nf2.IntValue(2), nf2.StringValue("input shaft"), nf2.LinkValue(7),
				nf2.RelValue([]nf2.Tuple{
					nf2.NewTuple(nf2.StringValue("circlip"), nf2.IntValue(0)),
				})),
		}),
	)
	if err := assembly.Validate(gearbox); err != nil {
		panic(err)
	}

	// Binary encoding: the exact bytes the storage models would place on
	// disk pages.
	buf, err := assembly.Encode(gearbox)
	if err != nil {
		panic(err)
	}
	fmt.Printf("encoded assembly: %d bytes (computed %d)\n",
		len(buf), assembly.EncodedSize(gearbox))

	// Partial decoding — the mechanism behind DASDBS-DSM's selective page
	// access: project the title without touching the parts.
	title, err := assembly.DecodeAttr(buf, 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("projected title only: %q\n", title.Str())

	// Full decoding round-trips.
	back, err := assembly.Decode(buf)
	if err != nil {
		panic(err)
	}
	fmt.Println("round trip equal:", assembly.Equal(gearbox, back))

	// Navigate the LINK attributes (supplier references).
	parts, err := assembly.DecodeAttr(buf, 2)
	if err != nil {
		panic(err)
	}
	for _, p := range parts.Tuples() {
		fmt.Printf("part %d (%s) -> supplier object %d, %d fasteners\n",
			p.Vals[0].Int(), p.Vals[1].Str(), p.Vals[2].Int(), len(p.Vals[3].Tuples()))
	}
	// Output:
	// schema: Assembly = (Id INT, Title STR(60), Parts {(Part)})
	// encoded assembly: 294 bytes (computed 294)
	// projected title only: "gearbox, 6-speed"
	// round trip equal: true
	// part 1 (housing) -> supplier object 12, 2 fasteners
	// part 2 (input shaft) -> supplier object 7, 1 fasteners
}

// Example_railway is an information-system scenario on the public API —
// route search over the connection graph ("which stations can I reach
// within two changes?") — and what that workload costs under each
// storage model. It is the workload class the paper's introduction
// motivates: CAD, GIS and similar systems navigate object references and
// need "efficient retrieval and manipulation of the complex objects as a
// whole and of parts thereof".
func Example_railway() {
	gen := cobench.DefaultConfig().WithN(400)

	// Build the same railway network under every storage model.
	fmt.Println("reachability within 2 changes, measured under each storage model:")
	fmt.Printf("%-12s %8s %10s %10s %10s\n", "MODEL", "reached", "pagesRead", "I/O calls", "fixes")
	for _, kind := range complexobj.AllModels() {
		db, err := complexobj.OpenLoaded(kind, complexobj.Options{BufferPages: 512}, gen)
		if err != nil {
			panic(err)
		}
		reached, err := reachable(db, 0, 2)
		if err != nil {
			panic(err)
		}
		s := db.Stats()
		fmt.Printf("%-12s %8d %10d %10d %10d\n",
			kind, len(reached), s.PagesRead, s.Calls(), s.BufferFixes)
		db.Close()
	}

	// Show an actual route expansion on the winner.
	db, err := complexobj.OpenLoaded(complexobj.DASDBSNSM, complexobj.Options{}, gen)
	if err != nil {
		panic(err)
	}
	defer db.Close()
	root, children, err := db.Navigate(0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\ndepartures from %q:\n", root.Name)
	for _, c := range children {
		r, err := db.ReadRoot(int(c))
		if err != nil {
			panic(err)
		}
		fmt.Printf("  -> %s\n", r.Name)
	}
	// Output:
	// reachability within 2 changes, measured under each storage model:
	// MODEL         reached  pagesRead  I/O calls      fixes
	// DSM                28         26         14         26
	// DASDBS-DSM         28         14         14         14
	// NSM                28         19         19         48
	// NSM+index          28         13         13         38
	// DASDBS-NSM         28         13         13         14
	//
	// departures from "Lugano Centraal 0 (monument line)":
	//   -> Chur Centraal 325 (panorama line)
	//   -> Enschede Centraal 278 (harbour line)
	//   -> Lausanne Centraal 158 (harbour line)
	//   -> Lausanne Centraal 388 (castle line)
	//   -> Lugano Centraal 345 (castle line)
	//   -> Apeldoorn Centraal 379 (fountain line)
	//   -> Lausanne Centraal 158 (harbour line)
}

// reachable runs a breadth-first expansion over the connection graph up to
// the given depth, using only the navigation API (root records + child
// references; sightseeing payloads are never needed — exactly the access
// pattern where the storage models differ).
func reachable(db *complexobj.DB, start, depth int) (map[int32]bool, error) {
	seen := map[int32]bool{int32(start): true}
	frontier := []int32{int32(start)}
	for d := 0; d < depth; d++ {
		var next []int32
		for _, idx := range frontier {
			_, children, err := db.Navigate(int(idx))
			if err != nil {
				return nil, err
			}
			for _, c := range children {
				if !seen[c] {
					seen[c] = true
					next = append(next, c)
				}
			}
		}
		frontier = next
	}
	return seen, nil
}
