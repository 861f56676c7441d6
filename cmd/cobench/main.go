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
// Measured locally, the table is the experiments suite's: one
// experiments.Suite built from the flags (-n, -maxseeing, -skew and -seed
// the extension, -loops, -samples and -seed the workload, -buffer,
// -workers, -db, -faults), whose Measure runs each storage model on a
// copy-on-write view of its physical layout's frozen base — DSM and
// DASDBS-DSM share one, NSM and NSM+index another — with the model rows
// measured concurrently by a bounded worker pool (-workers, 0 =
// GOMAXPROCS); the printed table is identical for any width. -db maps the
// bases from a cogen-built snapshot, which must hold the flags'
// extension, instead of generating and loading it.
//
// -repeat measures the whole table that many times (the runs are
// deterministic and identical; the table is printed once) — useful under
// -cpuprofile/-memprofile to accumulate signal. Each layout's base is
// built exactly once per invocation — loaded, or mapped from the snapshot
// read-only where the platform allows — and every repeat gets fresh views
// of it.
//
// With -serve-url, cobench drives a running coserve (or coshard) instead:
// every (model, query, repeat) cell is one HTTP request, and one driver
// (drive.go) runs each served load as one of three things — a table run in
// a closed loop (-clients workers pull the cells), a table run in an open
// loop (one ticker fires the cells at -rate R per second regardless of
// completions), or a soak (-soak D: -soak-steps open-loop phases climbing
// to -rate, default 50 req/s, each for D/steps). All three share one
// request path (bounded retry with backoff over transport errors and 503
// sheds), one accumulator (one latency observation per answered request:
// the successful attempt's issue → decoded response, in the histogram code
// the server's /metrics runs on), one /info bracket around the run and one
// report: a summary line on stderr, so stdout stays diffable, and with
// -report the same figures as JSON, written even when the run fails.
//
// A table run prints the table built from the served counters,
// byte-identical to the local run with the same flags — the server's
// acceptance test — and fails if a request failed or a cell answered twice
// with different counters (client divergence). A soak prints no table; it
// gates on zero hard errors, zero divergent cells (server /stats and
// client side), server RSS growth within -soak-rss-mb MiB and zero lost
// updates, and tolerates sheds that outlast the retries.
//
// -write-frac F mixes durable writes into any served load: that fraction
// of the update-query (3a/3b) requests carries commit=1, which needs a
// durable server (coserve -wal). The run then reports commits, their
// latency and the server's WAL traffic, and fails if an acknowledged
// commit is missing from the server's own counter (a lost update). Read
// counters stay bit-identical — commits happen after the measured run.
//
// -faults arms a seeded fault-injection schedule under every local
// engine (see complexobj.ParseFaultPlan for the grammar); in -serve-url
// mode faults are the server's business — start coserve -faults instead —
// and so is the snapshot: -db is refused there, start coserve -db.
// Injected faults surface as errors and never alter the counters of
// successful runs, so a table measured under a transient-only schedule
// still diffs clean against the fault-free run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"complexobj"
	"complexobj/cobench"
	"complexobj/experiments"
	"complexobj/internal/profile"
	"complexobj/report"
)

// options holds cobench's flags, read by the local and the served path.
type options struct {
	model, query, metric, dbPath, faults, cpuProf, memProf string
	n, buffer, loops, samples, maxSeeing, workers, repeat  int
	seed                                                   uint64
	skew                                                   bool

	// -serve-url mode
	serveURL, reportPath          string
	clients, soakSteps, soakRSSMB int
	rate, writeFrac               float64
	soak                          time.Duration
}

// flags registers cobench's flags on fs.
func flags(fs *flag.FlagSet) *options {
	o := new(options)
	fs.StringVar(&o.model, "model", "all", "storage model: all, dsm, ddsm, nsm, nsmx, dnsm")
	fs.StringVar(&o.query, "query", "all", "benchmark query: all, 1a, 1b, 1c, 2a, 2b, 3a, 3b")
	fs.IntVar(&o.n, "n", 1500, "number of stations")
	fs.IntVar(&o.buffer, "buffer", 1200, "buffer pool pages")
	fs.IntVar(&o.loops, "loops", 300, "loops for queries 2b/3b")
	fs.IntVar(&o.samples, "samples", 40, "samples for single-shot queries")
	fs.Uint64Var(&o.seed, "seed", 1993, "generator seed")
	fs.BoolVar(&o.skew, "skew", false, "use the data-skew extension (prob 0.2, fanout 8)")
	fs.IntVar(&o.maxSeeing, "maxseeing", 15, "maximum sightseeings per station")
	fs.StringVar(&o.metric, "metric", "pages", "reported metric: pages, calls, fixes or writes")
	fs.IntVar(&o.workers, "workers", 0, "model rows measured concurrently (0 = GOMAXPROCS)")
	fs.StringVar(&o.dbPath, "db", "", "map the models' bases from this cogen-built .codb snapshot instead of generating")
	fs.IntVar(&o.repeat, "repeat", 1, "measure the full table this many times (deterministic; printed once)")
	fs.StringVar(&o.cpuProf, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProf, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&o.serveURL, "serve-url", "", "drive a running coserve at this base URL instead of measuring locally")
	fs.IntVar(&o.clients, "clients", 8, "concurrent closed-loop clients in -serve-url mode")
	fs.Float64Var(&o.rate, "rate", 0, "open-loop request rate per second in -serve-url mode (0 = closed loop)")
	fs.StringVar(&o.faults, "faults", "", "fault-injection schedule for every local engine, e.g. seed=7,read=0.02,latency=0.05:2ms")
	fs.StringVar(&o.reportPath, "report", "", "write a machine-readable JSON run report to this file (-serve-url mode)")
	fs.DurationVar(&o.soak, "soak", 0, "sustained-load soak of this total duration instead of a table run (-serve-url mode)")
	fs.IntVar(&o.soakSteps, "soak-steps", 4, "rate-ramp steps of the soak (climbing to -rate, default 50 req/s)")
	fs.IntVar(&o.soakRSSMB, "soak-rss-mb", 64, "soak gate: server RSS may grow at most this many MiB")
	fs.Float64Var(&o.writeFrac, "write-frac", 0, "fraction of update-query (3a/3b) requests committed durably in -serve-url mode (needs coserve -wal)")
	return o
}

func main() {
	o := flags(flag.CommandLine)
	flag.Parse()

	stopProf, err := profile.Start(o.cpuProf, o.memProf)
	if err != nil {
		fatal(err)
	}
	err = run(o, os.Stdout, os.Stderr)
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fatal(err)
	}
}

// run does all the work, so the profile writers flush on every exit path
// (os.Exit lives only in main): the table goes to stdout, the served run's
// report to stderr.
func run(o *options, stdout, stderr io.Writer) error {
	gen := cobench.DefaultConfig().WithN(o.n).WithMaxSeeing(o.maxSeeing)
	gen.Seed = o.seed
	if o.skew {
		gen = gen.Skewed()
	}
	w := cobench.Workload{Loops: o.loops, Samples: o.samples, Seed: o.seed}

	models := complexobj.AllModels()
	if o.model != "all" {
		k, err := complexobj.ModelByName(o.model)
		if err != nil {
			return err
		}
		models = []complexobj.ModelKind{k}
	}
	queries := cobench.AllQueries()
	if o.query != "all" {
		q, ok := cobench.QueryByName(o.query)
		if !ok {
			return fmt.Errorf("unknown query %q", o.query)
		}
		queries = []cobench.Query{q}
	}
	get, ok := metricFn(o.metric)
	if !ok {
		return fmt.Errorf("unknown metric %q", o.metric)
	}
	if o.repeat < 1 {
		return fmt.Errorf("-repeat %d: need at least one run", o.repeat)
	}

	var rows [][]string
	var err error
	if o.serveURL != "" {
		if o.faults != "" {
			return fmt.Errorf("-faults injects under local engines; with -serve-url, arm the server instead (coserve -faults %q)", o.faults)
		}
		if o.dbPath != "" {
			return fmt.Errorf("-db maps a snapshot under local engines; with -serve-url, the server maps its own (coserve -db %q)", o.dbPath)
		}
		if o.writeFrac < 0 || o.writeFrac > 1 {
			return fmt.Errorf("-write-frac %g out of range [0, 1]", o.writeFrac)
		}
		rows, err = drive(o, gen, w, models, queries, get, stderr)
	} else {
		if o.soak > 0 {
			return fmt.Errorf("-soak drives a running coserve; pass -serve-url")
		}
		if o.reportPath != "" {
			return fmt.Errorf("-report summarizes served load; pass -serve-url")
		}
		if o.writeFrac > 0 {
			return fmt.Errorf("-write-frac drives a durable coserve; pass -serve-url")
		}
		s := experiments.New(experiments.Config{
			Gen: gen, Workload: w, BufferPages: o.buffer, Workers: o.workers, Snapshot: o.dbPath, Faults: o.faults,
		})
		rows, err = measureLocal(s, models, queries, o.repeat, get)
		if cerr := s.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil || rows == nil { // a soak's deliverable is its verdict, not a table
		return err
	}
	t := &report.Table{
		Title:  fmt.Sprintf("measured %s per object/loop (N=%d, buffer=%d pages, loops=%d)", o.metric, o.n, o.buffer, o.loops),
		Header: []string{"MODEL"},
	}
	for _, q := range queries {
		t.Header = append(t.Header, q.String())
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	fmt.Fprintln(stdout, t.Text())
	return nil
}

// measureLocal measures the table in this process, on the suite built
// from the flags: its Measure runs every model on a fresh view of its
// layout's base, repeat times. The suite builds each base once — three
// layouts for the five models, loaded from one generated extension or
// mapped from the -db snapshot, which it checks against the generator
// flags — and every repeat is a view of it. The runs are identical; the
// rows are the last one's.
func measureLocal(s *experiments.Suite, models []complexobj.ModelKind, queries []cobench.Query,
	repeat int, get func(complexobj.QueryResult) float64) ([][]string, error) {

	var cells [][]experiments.Measured
	for r := 0; r < repeat; r++ {
		var err error
		if cells, err = s.Measure(models, queries); err != nil {
			return nil, err
		}
	}
	rows := make([][]string, len(models))
	for i, m := range models {
		rows[i] = []string{m.String()}
		for _, c := range cells[i] {
			rows[i] = append(rows[i], cellText(complexobj.QueryResult{Supported: c.Supported, PerUnit: c.PerUnit}, get))
		}
	}
	return rows, nil
}

// cellText renders one table cell: the chosen metric, or "-" where the
// model does not support the query.
func cellText(res complexobj.QueryResult, get func(complexobj.QueryResult) float64) string {
	if !res.Supported {
		return "-"
	}
	return report.Num(get(res))
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
