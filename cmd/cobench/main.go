// Command cobench runs the complex object benchmark (paper §2) against one
// or all storage models and prints the measured I/O statistics.
//
// Usage:
//
//	cobench [-model all|dsm|ddsm|nsm|nsmx|dnsm] [-query all|1a|1b|1c|2a|2b|3a|3b]
//	        [-n 1500] [-buffer 1200] [-loops 300] [-samples 40] [-seed 1993]
//	        [-skew] [-maxseeing 15] [-metric pages|calls|fixes|writes]
//	        [-workers 0] [-db snapshot.codb]
//	        [-repeat 1] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	        [-serve-url http://host:8077] [-clients 8] [-rate 0]
//	        [-faults SPEC] [-report out.json] [-write-frac 0]
//	        [-soak 2m] [-soak-steps 4] [-soak-rss-mb 64]
//
// Each storage model is measured on copy-on-write views of its own frozen
// base, so the model rows are measured concurrently by a bounded worker
// pool (-workers, 0 = GOMAXPROCS); the printed table is identical for any
// width. -db maps the bases from a cogen-built snapshot instead of
// generating and loading the extension.
//
// -repeat measures the whole table that many times (the runs are
// deterministic and identical; the table is printed once) — useful under
// -cpuprofile/-memprofile to accumulate signal. Each model's base is
// built exactly once per invocation — loaded, or mapped from the snapshot
// read-only where the platform allows — and every repeat gets a fresh
// view of it.
//
// With -serve-url, cobench is a load generator against a running coserve
// instead of measuring locally: every (model, query) cell becomes an HTTP
// request, -clients concurrent closed-loop clients drive them (-repeat
// repeats the whole set), and -rate R switches to an open loop launching
// R requests per second regardless of completions. The printed table is
// built from the served per-request counters and is byte-identical to the
// local run with the same flags — that equivalence is the server's
// acceptance test — while a latency/throughput report (p50/p90/p99/p99.9
// percentiles from the same histogram code the server's /metrics runs
// on, plus retry and shed counts: the client retries transient
// connection errors and 503 sheds with bounded backoff) goes to stderr
// so stdout stays diffable. -report additionally writes the summary as
// JSON.
//
// -write-frac F mixes durable writes into the served load: that
// fraction of the update-query (3a/3b) requests carries commit=1, so
// the server folds the mutation into its base through the write-ahead
// log before answering. It needs a durable server (coserve -wal); the
// run then reports commit counts and commit-latency percentiles and
// fails if any acknowledged commit is missing from the server's own
// counter (a lost update). Read counters stay bit-identical — commits
// happen after the measured run, on fixed-size update stamps.
//
// -soak D replaces the table run with a sustained open-loop load: a
// stepped rate ramp (-soak-steps rungs climbing to -rate req/s, default
// 50) over the total duration D, gated on zero hard errors, zero
// divergent counter cells (server- and client-side), server RSS
// growth within -soak-rss-mb MiB and — with -write-frac — zero lost
// updates. A failing gate exits non-zero after writing the -report
// file, so CI keeps the evidence.
//
// -faults arms a seeded fault-injection schedule under every local
// engine (see complexobj.ParseFaultPlan for the grammar); in -serve-url
// mode faults are the server's business — start coserve -faults instead.
// Injected faults surface as errors and never alter the counters of
// successful runs, so a table measured under a transient-only schedule
// still diffs clean against the fault-free run.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"complexobj"
	"complexobj/cobench"
	"complexobj/internal/fanout"
	"complexobj/internal/profile"
	"complexobj/report"
)

func main() {
	var (
		model     = flag.String("model", "all", "storage model: all, dsm, ddsm, nsm, nsmx, dnsm")
		query     = flag.String("query", "all", "benchmark query: all, 1a, 1b, 1c, 2a, 2b, 3a, 3b")
		n         = flag.Int("n", 1500, "number of stations")
		buffer    = flag.Int("buffer", 1200, "buffer pool pages")
		loops     = flag.Int("loops", 300, "loops for queries 2b/3b")
		samples   = flag.Int("samples", 40, "samples for single-shot queries")
		seed      = flag.Uint64("seed", 1993, "generator seed")
		skew      = flag.Bool("skew", false, "use the data-skew extension (prob 0.2, fanout 8)")
		maxSeeing = flag.Int("maxseeing", 15, "maximum sightseeings per station")
		metric    = flag.String("metric", "pages", "reported metric: pages, calls, fixes or writes")
		workers   = flag.Int("workers", 0, "model rows measured concurrently (0 = GOMAXPROCS)")
		dbPath    = flag.String("db", "", "map the models' bases from this cogen-built .codb snapshot instead of generating")
		repeat    = flag.Int("repeat", 1, "measure the full table this many times (deterministic; printed once)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		serveURL  = flag.String("serve-url", "", "drive a running coserve at this base URL instead of measuring locally")
		clients   = flag.Int("clients", 8, "concurrent closed-loop clients in -serve-url mode")
		rate      = flag.Float64("rate", 0, "open-loop request rate per second in -serve-url mode (0 = closed loop)")
		faults    = flag.String("faults", "", "fault-injection schedule for every local engine, e.g. seed=7,read=0.02,latency=0.05:2ms")
		reportOut = flag.String("report", "", "write a machine-readable JSON run report to this file (-serve-url mode)")
		soak      = flag.Duration("soak", 0, "sustained-load soak of this total duration instead of a table run (-serve-url mode)")
		soakSteps = flag.Int("soak-steps", 4, "rate-ramp steps of the soak (climbing to -rate, default 50 req/s)")
		soakRSS   = flag.Int("soak-rss-mb", 64, "soak gate: server RSS may grow at most this many MiB")
		writeFrac = flag.Float64("write-frac", 0, "fraction of update-query (3a/3b) requests committed durably in -serve-url mode (needs coserve -wal)")
	)
	flag.Parse()

	stopProf, err := profile.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	err = run(*model, *query, *n, *buffer, *loops, *samples, *seed, *skew, *maxSeeing,
		*metric, *workers, *dbPath, *repeat, *serveURL, *clients, *rate, *faults,
		*reportOut, *soak, *soakSteps, *soakRSS, *writeFrac)
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fatal(err)
	}
}

// run does all the work, so the profile writers flush on every exit path
// (os.Exit lives only in main).
func run(model, query string, n, buffer, loops, samples int, seed uint64, skew bool,
	maxSeeing int, metric string, workers int, dbPath string, repeat int,
	serveURL string, clients int, rate float64, faults string,
	reportPath string, soak time.Duration, soakSteps, soakRSSMB int, writeFrac float64) error {

	gen := cobench.DefaultConfig().WithN(n).WithMaxSeeing(maxSeeing)
	gen.Seed = seed
	if skew {
		gen = gen.Skewed()
	}
	w := cobench.Workload{Loops: loops, Samples: samples, Seed: seed}

	models := complexobj.AllModels()
	if model != "all" {
		k, err := complexobj.ModelByName(model)
		if err != nil {
			return err
		}
		models = []complexobj.ModelKind{k}
	}
	queries := cobench.AllQueries()
	if query != "all" {
		q, ok := cobench.QueryByName(query)
		if !ok {
			return fmt.Errorf("unknown query %q", query)
		}
		queries = []cobench.Query{q}
	}
	get, ok := metricFn(metric)
	if !ok {
		return fmt.Errorf("unknown metric %q", metric)
	}
	if repeat < 1 {
		return fmt.Errorf("-repeat %d: need at least one run", repeat)
	}

	if dbPath != "" {
		info, err := complexobj.StatSnapshot(dbPath)
		if err != nil {
			return err
		}
		if info.Gen != gen {
			return fmt.Errorf("snapshot %s was built from %+v, flags request %+v", dbPath, info.Gen, gen)
		}
	}

	t := &report.Table{
		Title:  fmt.Sprintf("measured %s per object/loop (N=%d, buffer=%d pages, loops=%d)", metric, n, buffer, loops),
		Header: []string{"MODEL"},
	}
	for _, q := range queries {
		t.Header = append(t.Header, q.String())
	}
	var (
		rows [][]string
		err  error
	)
	if serveURL != "" {
		if faults != "" {
			return fmt.Errorf("-faults injects under local engines; with -serve-url, arm the server instead (coserve -faults %q)", faults)
		}
		if writeFrac < 0 || writeFrac > 1 {
			return fmt.Errorf("-write-frac %g out of range [0, 1]", writeFrac)
		}
		if soak > 0 {
			// Soak mode replaces the table: the deliverable is the gate
			// verdict (and the -report JSON), not measurements.
			return runSoak(serveURL, models, queries, gen, w, buffer, soak, soakSteps, rate, soakRSSMB, writeFrac, reportPath)
		}
		rows, err = measureServed(serveURL, models, queries, gen, w, buffer, clients, rate, repeat, writeFrac, reportPath, get)
	} else {
		if soak > 0 {
			return fmt.Errorf("-soak drives a running coserve; pass -serve-url")
		}
		if reportPath != "" {
			return fmt.Errorf("-report summarizes served load; pass -serve-url")
		}
		if writeFrac > 0 {
			return fmt.Errorf("-write-frac drives a durable coserve; pass -serve-url")
		}
		plan, perr := complexobj.ParseFaultPlan(faults)
		if perr != nil {
			return perr
		}
		opts := complexobj.Options{BufferPages: buffer, Faults: plan}
		openBase := func(k complexobj.ModelKind) (*complexobj.Base, error) {
			return buildBase(k, dbPath, opts, gen)
		}
		rows, err = measureModels(models, queries, w, opts, workers, repeat, openBase, get)
	}
	if err != nil {
		return err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	fmt.Println(t.Text())
	return nil
}

// buildBase builds the one frozen base a model is measured on for the
// whole invocation: mapped from the snapshot when dbPath is set, otherwise
// generated, loaded and frozen.
func buildBase(k complexobj.ModelKind, dbPath string, opts complexobj.Options, gen cobench.Config) (*complexobj.Base, error) {
	if dbPath != "" {
		return complexobj.OpenBase(dbPath, k)
	}
	db, err := complexobj.OpenLoaded(k, opts, gen)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	return db.Freeze()
}

// measureModels runs the selected queries on every model with a bounded
// worker pool, repeat times. A model is one unit of the pool: it builds
// its base once (openBase) and every repeat opens a fresh copy-on-write
// view of it — an independent simulated device and buffer pool — so no
// mutable storage state is shared; runs are deterministic and identical,
// and rows come back in model order regardless of scheduling.
func measureModels(models []complexobj.ModelKind, queries []cobench.Query,
	w cobench.Workload, opts complexobj.Options, workers, repeat int,
	openBase func(complexobj.ModelKind) (*complexobj.Base, error),
	get func(complexobj.QueryResult) float64) ([][]string, error) {

	rows := make([][]string, len(models))
	err := fanout.Run(len(models), workers, func(idx int) error {
		k := models[idx]
		base, err := openBase(k)
		if err != nil {
			return err
		}
		defer base.Close()
		for r := 0; r < repeat; r++ {
			db, err := base.Open(opts)
			if err != nil {
				return err
			}
			row := []string{k.String()}
			for _, q := range queries {
				res, err := db.Run(q, w)
				if err != nil {
					db.Close()
					return err
				}
				if !res.Supported {
					row = append(row, "-")
					continue
				}
				row = append(row, report.Num(get(res)))
			}
			if err := db.Close(); err != nil {
				return err
			}
			rows[idx] = row
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func metricFn(name string) (func(complexobj.QueryResult) float64, bool) {
	switch name {
	case "pages":
		return func(r complexobj.QueryResult) float64 { return r.Pages }, true
	case "calls":
		return func(r complexobj.QueryResult) float64 { return r.Calls }, true
	case "fixes":
		return func(r complexobj.QueryResult) float64 { return r.Fixes }, true
	case "writes":
		return func(r complexobj.QueryResult) float64 { return r.PagesWritten }, true
	default:
		return nil, false
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cobench:", err)
	os.Exit(1)
}
