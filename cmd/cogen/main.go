// Command cogen generates a benchmark extension (paper §2.1) and reports
// its distribution statistics, optionally dumping individual objects or
// building a reusable database snapshot.
//
// Usage:
//
//	cogen [-n 1500] [-seed 1993] [-prob 0.8] [-fanout 2] [-maxseeing 15] [-skew]
//	      [-dump 42] [-db bench.codb] [-wal DIR] [-buffer 1200] [-faults SPEC]
//	      [-split N] [-strategy range]
//
// With -db, the extension is loaded into every storage model and the
// result is serialized as a .codb snapshot (device arenas + directory
// metadata), which cotables -db / cobench -db replay without regenerating
// or reloading anything. With -wal, the loaded models additionally seed
// a commit-log directory with a checkpoint name per model (DIR/<slug>.codb
// at watermark 0): one container, each physical layout stored once,
// hard-linked under the five names, so `coserve -wal DIR` can start
// durable serving there without a snapshot fallback and maps each layout
// once. The models
// load concurrently, each over its own engine. -faults arms a seeded fault-injection schedule under those
// loading engines (see complexobj.ParseFaultPlan for the grammar) —
// mainly a resilience exercise: the load either survives transient
// faults and writes a snapshot identical to the fault-free one, or fails
// with a structured error, never a corrupt snapshot; the injected-fault
// counters go to stderr.
//
// With -split N, the -db snapshot is additionally split into N per-shard
// .codb segments (bench.s0.codb, …) plus a shard map (bench.shards.json)
// for the scale-out deployment: N coserve backends each serving their
// segment (-shard-map + -shards) behind a coshard router. -strategy
// selects the partition function (range: contiguous slices of the model
// list; hash: FNV-1a of the model name; explicit:dsm,nsmx/ddsm,nsm,dnsm:
// an operator-chosen assignment, the only way to balance shards by
// measured load — per-model costs differ by factors, not percent).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"complexobj"
	"complexobj/cobench"
	"complexobj/internal/fanout"
	"complexobj/internal/shard"
	"complexobj/report"
)

func main() {
	var (
		n         = flag.Int("n", 1500, "number of stations")
		seed      = flag.Uint64("seed", 1993, "generator seed")
		prob      = flag.Float64("prob", 0.8, "sub-object generation probability")
		fanout    = flag.Int("fanout", 2, "slots per nesting level")
		maxSeeing = flag.Int("maxseeing", 15, "maximum sightseeings per station")
		skew      = flag.Bool("skew", false, "data-skew preset (prob 0.2, fanout 8)")
		dump      = flag.Int("dump", -1, "print this station in full")
		hist      = flag.Bool("hist", false, "print the object-size histogram (pages per object)")
		dbPath    = flag.String("db", "", "load every storage model and write a reusable .codb snapshot here")
		walDir    = flag.String("wal", "", "seed this commit-log directory with a <slug>.codb checkpoint name per loaded model, all linked to one container storing each layout once (for coserve -wal)")
		buffer    = flag.Int("buffer", 1200, "buffer pool pages used while loading the snapshot models")
		faults    = flag.String("faults", "", "fault-injection schedule under the snapshot-loading engines, e.g. seed=7,read=0.02")
		split     = flag.Int("split", 0, "split the -db snapshot into this many per-shard .codb segments plus a shard map (0: no split)")
		strategy  = flag.String("strategy", shard.StrategyRange, "shard partition strategy for -split: hash, range, or explicit:dsm,nsmx/ddsm,nsm,dnsm (a load-aware split)")
	)
	flag.Parse()

	cfg := cobench.Config{N: *n, Prob: *prob, Fanout: *fanout, MaxSeeing: *maxSeeing, Seed: *seed}
	if *skew {
		cfg = cfg.Skewed()
	}
	stations, err := cobench.Generate(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cogen:", err)
		os.Exit(1)
	}
	st := cobench.Describe(stations)

	t := &report.Table{
		Title:  fmt.Sprintf("benchmark extension (N=%d, prob=%.2f, fanout=%d, maxSeeing=%d, seed=%d)", cfg.N, cfg.Prob, cfg.Fanout, cfg.MaxSeeing, cfg.Seed),
		Header: []string{"STATISTIC", "VALUE", "PAPER EXPECTATION"},
	}
	t.AddRow("avg platforms/station", report.Num(st.AvgPlatforms), report.Num(cfg.ExpectedPlatforms()))
	t.AddRow("avg connections/station", report.Num(st.AvgConnections), report.Num(cfg.ExpectedChildren()))
	t.AddRow("avg sightseeings/station", report.Num(st.AvgSeeings), report.Num(cfg.ExpectedSeeings()))
	t.AddRow("avg grand-children", report.Num(st.AvgGrand), report.Num(cfg.ExpectedGrandChildren()))
	t.AddRow("max platforms", report.Int(st.MaxPlatforms), "")
	t.AddRow("max connections/station", report.Int(st.MaxConnections), "")
	t.AddRow("max sightseeings", report.Int(st.MaxSeeings), "")
	t.AddRow("avg encoded bytes/object", report.Num(st.AvgEncodedBytes), "")
	fmt.Println(t.Text())

	if *hist {
		fmt.Println("object size histogram (direct-storage pages per object):")
		buckets := cobench.SizeHistogram(stations)
		maxCount := 0
		for _, b := range buckets {
			if b.Count > maxCount {
				maxCount = b.Count
			}
		}
		for _, b := range buckets {
			bar := ""
			if maxCount > 0 {
				bar = strings.Repeat("#", b.Count*50/maxCount)
			}
			fmt.Printf("%3d page(s) | %-50s %d\n", b.Pages, bar, b.Count)
		}
		fmt.Println()
	}

	if *dump >= 0 {
		if *dump >= len(stations) {
			fmt.Fprintf(os.Stderr, "cogen: station %d out of range\n", *dump)
			os.Exit(1)
		}
		printStation(stations[*dump])
	}

	if *dbPath != "" || *walDir != "" {
		if err := buildSnapshot(*dbPath, *walDir, cfg, stations, *buffer, *faults); err != nil {
			fmt.Fprintln(os.Stderr, "cogen:", err)
			os.Exit(1)
		}
	}
	if *split > 0 {
		if *dbPath == "" {
			fmt.Fprintln(os.Stderr, "cogen: -split needs -db (segments are extracted from the snapshot)")
			os.Exit(1)
		}
		if err := splitSnapshot(*dbPath, *split, *strategy); err != nil {
			fmt.Fprintln(os.Stderr, "cogen:", err)
			os.Exit(1)
		}
	}
}

// splitSnapshot partitions the snapshot's models across n shards and
// extracts one .codb segment per non-empty shard (bench.codb →
// bench.s0.codb…), writing the shard map next to them (bench.shards.json)
// with segment paths relative to the map file. Segments copy arena bytes
// verbatim (complexobj.ExtractSnapshot), so a shard served from its
// segment measures bit-identically to one served from the full snapshot.
func splitSnapshot(dbPath string, n int, strategy string) error {
	info, err := complexobj.StatSnapshot(dbPath)
	if err != nil {
		return err
	}
	names := make([]string, len(info.Models))
	for i, k := range info.Models {
		names[i] = k.String()
	}
	// Explicit specs accept the short model aliases the CLIs use (dsm,
	// ddsm, …); translate them to the display names the map stores.
	if rest, ok := strings.CutPrefix(strategy, shard.StrategyExplicit); ok {
		groups := strings.Split(rest, "/")
		for i, group := range groups {
			tokens := strings.Split(group, ",")
			for j, tok := range tokens {
				if k, err := complexobj.ModelByName(strings.TrimSpace(tok)); err == nil {
					tokens[j] = k.String()
				}
			}
			groups[i] = strings.Join(tokens, ",")
		}
		strategy = shard.StrategyExplicit + strings.Join(groups, "/")
	}
	m, err := shard.Partition(names, n, strategy)
	if err != nil {
		return err
	}
	for i := range m.Shards {
		s := &m.Shards[i]
		if len(s.Models) == 0 {
			continue // a hash shard may own nothing; it gets no segment
		}
		kinds := make([]complexobj.ModelKind, len(s.Models))
		for j, name := range s.Models {
			if kinds[j], err = complexobj.ModelByName(name); err != nil {
				return err
			}
		}
		seg := shard.SegmentName(dbPath, s.ID)
		if err := complexobj.ExtractSnapshot(dbPath, seg, kinds); err != nil {
			return err
		}
		s.Segment = filepath.Base(seg)
		st, err := os.Stat(seg)
		if err != nil {
			return err
		}
		fmt.Printf("wrote shard %d segment %s: %s, %.1f MiB\n",
			s.ID, seg, strings.Join(s.Models, "+"), float64(st.Size())/(1<<20))
	}
	mapPath := shard.MapName(dbPath)
	if err := m.Write(mapPath); err != nil {
		return err
	}
	fmt.Printf("wrote shard map %s: %d shards over %d models (%s, version %d)\n",
		mapPath, len(m.Shards), len(names), m.Strategy, m.Version)
	return nil
}

// buildSnapshot loads the generated extension into every storage model
// (concurrently, each over its own engine) and writes the .codb snapshot
// (path non-empty) and/or seeds a commit-log directory (walDir non-empty).
func buildSnapshot(path, walDir string, cfg cobench.Config, stations []*cobench.Station, bufferPages int, faults string) error {
	plan, err := complexobj.ParseFaultPlan(faults)
	if err != nil {
		return err
	}
	kinds := complexobj.AllModels()
	dbs := make([]*complexobj.DB, len(kinds))
	defer func() {
		for _, db := range dbs {
			if db != nil {
				db.Close()
			}
		}
	}()
	err = fanout.Run(len(kinds), 0, func(i int) error {
		db, err := complexobj.Open(kinds[i], complexobj.Options{BufferPages: bufferPages, Faults: plan})
		if err != nil {
			return err
		}
		if err := db.Load(stations); err != nil {
			db.Close()
			return fmt.Errorf("load %s: %w", kinds[i], err)
		}
		dbs[i] = db
		return nil
	})
	if err != nil {
		return err
	}
	if path != "" {
		if err := complexobj.WriteSnapshot(path, cfg, dbs...); err != nil {
			return err
		}
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		fmt.Printf("wrote snapshot %s: %d models, N=%d, %.1f MiB\n",
			path, len(kinds), cfg.N, float64(st.Size())/(1<<20))
	}
	if walDir != "" {
		if err := complexobj.SeedCommitDir(walDir, dbs...); err != nil {
			return err
		}
		fmt.Printf("seeded commit dir %s: %d model checkpoints, N=%d\n", walDir, len(kinds), cfg.N)
	}
	if plan != nil {
		fs := plan.Stats()
		fmt.Fprintf(os.Stderr, "cogen: survived %d injected faults over %d device ops (%s)\n",
			fs.Injected(), fs.Ops, plan)
	}
	return nil
}

func printStation(s *cobench.Station) {
	fmt.Printf("Station key=%d name=%q platforms=%d sightseeings=%d\n",
		s.Key, s.Name, s.NoPlatform, s.NoSeeing)
	for _, p := range s.Platforms {
		fmt.Printf("  Platform %d (lines=%d, ticket=%d) %q\n", p.Nr, p.NoLine, p.TicketCode, p.Information)
		for _, c := range p.Conns {
			fmt.Printf("    Connection line=%d -> station %d (key %d) at %q\n",
				c.LineNr, c.OidConnection, c.KeyConnection, c.DepartureTimes)
		}
	}
	for _, g := range s.Seeings {
		fmt.Printf("  Sightseeing %d: %q at %q (%s; %s)\n", g.Nr, g.Description, g.Location, g.History, g.Remarks)
	}
}
