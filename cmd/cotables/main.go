// Command cotables regenerates every table and figure of the paper's
// evaluation section and prints them to stdout or writes them to a
// directory, in plain text, Markdown or CSV.
//
// Usage:
//
//	cotables [-format text|markdown|csv] [-out DIR]
//	         [-n 1500] [-buffer 1200] [-loops 300] [-seed 1993] [-clock]
//	         [-only table4,fig6] [-list] [-workers 0] [-db snapshot.codb]
//	         [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	         [-faults SPEC]
//
// Every measured cell — the matrix behind Tables 4-6 and 8 and the sweep
// experiments — is a copy-on-write view of one immutable loaded extension
// per storage layout, so memory does not scale with the cell count;
// -workers (0 = GOMAXPROCS) is how many cells run at once, and the
// emitted tables are identical for any value. -db maps a cogen-built
// snapshot in place for the default-extension bases instead of
// regenerating and reloading them; combined with -only (sections are only
// computed when they match the filter), e.g.
//
//	cotables -db bench.codb -only 'table 4,table 5,table 6'
//
// reproduces the measured tables without generating the extension at all.
//
// -list prints every section title the registry can produce (the strings
// -only matches against, substring, case-insensitive) and exits.
//
// -cpuprofile/-memprofile write runtime/pprof profiles of the run, so
// performance work on the harness can attribute time and allocations
// without editing code.
//
// -faults arms a seeded fault-injection schedule under every engine the
// suite builds (see complexobj.ParseFaultPlan for the grammar). Injected
// faults surface as errors, never as corrupted tables: a run that
// completes under a transient-only schedule emits tables byte-identical
// to the fault-free run.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"complexobj/experiments"
	"complexobj/internal/profile"
	"complexobj/report"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cotables:", err)
		os.Exit(1)
	}
}

// run does all the work, so deferred cleanup (closing the suite, which
// unmaps snapshot-backed bases and the page pool's chunks, and flushing
// the profiles) also happens on the error path — os.Exit lives only in
// main. A suite that fails to close fails the run.
func run() (err error) {
	var (
		format  = flag.String("format", "text", "output format: text, markdown or csv")
		outDir  = flag.String("out", "", "write one file per table into this directory instead of stdout")
		n       = flag.Int("n", 1500, "number of stations in the benchmark extension")
		buffer  = flag.Int("buffer", 1200, "buffer pool size in pages")
		loops   = flag.Int("loops", 300, "navigation loops for queries 2b/3b")
		seed    = flag.Uint64("seed", 1993, "generator seed")
		clock   = flag.Bool("clock", false, "use Clock replacement instead of LRU (ablation)")
		only    = flag.String("only", "", "comma-separated filter over table titles (e.g. 'table 4,figure 6'); unmatched sections are not computed")
		list    = flag.Bool("list", false, "print every section title -only can match, then exit")
		charts  = flag.Bool("charts", false, "append ASCII charts of Figures 5 and 6")
		workers = flag.Int("workers", 0, "cells of the measurement matrix and sweeps measured concurrently (0 = GOMAXPROCS)")
		dbPath  = flag.String("db", "", "map this cogen-built .codb snapshot for the default-extension bases instead of regenerating")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
		faults  = flag.String("faults", "", "fault-injection schedule under every suite engine, e.g. seed=7,read=0.02")
	)
	flag.Parse()

	if *list {
		fmt.Print(listSections())
		return nil
	}

	stopProf, err := profile.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "cotables:", perr)
		}
	}()

	cfg := experiments.DefaultConfig()
	cfg.Gen.N = *n
	cfg.Gen.Seed = *seed
	cfg.BufferPages = *buffer
	cfg.Workload.Loops = *loops
	cfg.UseClock = *clock
	cfg.Workers = *workers
	cfg.Snapshot = *dbPath
	cfg.Faults = *faults

	suite := experiments.New(cfg)
	defer func() {
		if cerr := suite.Close(); err == nil {
			err = cerr
		}
	}()

	var tables []*report.Table
	for _, sec := range experiments.Sections() {
		if !matches(sec.Titles, *only) {
			continue
		}
		ts, err := sec.Build(suite)
		if err != nil {
			return err
		}
		tables = append(tables, ts...)
	}
	tables = filterTables(tables, *only)
	if len(tables) == 0 {
		return fmt.Errorf("no table matches filter %q", *only)
	}

	render, err := renderer(*format)
	if err != nil {
		return err
	}
	if *outDir == "" {
		for _, t := range tables {
			fmt.Println(render(t))
		}
		if *charts {
			return printCharts(suite)
		}
		return nil
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	ext := map[string]string{"text": "txt", "markdown": "md", "csv": "csv"}[*format]
	for _, t := range tables {
		name := slug(t.Title) + "." + ext
		path := filepath.Join(*outDir, name)
		if err := os.WriteFile(path, []byte(render(t)+"\n"), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}

// listSections renders the full section registry: one line per table or
// figure the harness can produce, in paper order, grouped by section (a
// section is the unit -only computes or skips as a whole). Titles ending
// in "..." in the source embed computed values; -only matches on the
// static prefix printed here.
func listSections() string {
	var b strings.Builder
	b.WriteString("Sections (-only matches these titles, case-insensitive substring;\n")
	b.WriteString("a section is computed only if one of its titles matches):\n")
	for i, sec := range experiments.Sections() {
		for j, title := range sec.Titles {
			if j == 0 {
				fmt.Fprintf(&b, "%3d. %s\n", i+1, title)
			} else {
				fmt.Fprintf(&b, "     %s\n", title)
			}
		}
	}
	return b.String()
}

// filterTerms parses the -only value into lowercase substring terms; nil
// means "match everything". Section gating and per-table filtering share
// this parse so the two can never disagree on the filter syntax.
func filterTerms(only string) []string {
	var terms []string
	for _, f := range strings.Split(strings.ToLower(only), ",") {
		if f = strings.TrimSpace(f); f != "" {
			terms = append(terms, f)
		}
	}
	return terms
}

// matchesAny reports whether any term occurs in the title
// (case-insensitive substring); an empty term list matches everything.
func matchesAny(title string, terms []string) bool {
	if len(terms) == 0 {
		return true
	}
	lower := strings.ToLower(title)
	for _, f := range terms {
		if strings.Contains(lower, f) {
			return true
		}
	}
	return false
}

// matches reports whether any filter term occurs in any of the section's
// static titles.
func matches(titles []string, only string) bool {
	terms := filterTerms(only)
	if len(terms) == 0 {
		return true
	}
	for _, title := range titles {
		if matchesAny(title, terms) {
			return true
		}
	}
	return false
}

func printCharts(suite *experiments.Suite) error {
	f5, err := suite.ChartFigure5()
	if err != nil {
		return err
	}
	f6, err := suite.ChartFigure6()
	if err != nil {
		return err
	}
	for _, c := range append(f5, f6...) {
		fmt.Println(c)
	}
	return nil
}

func renderer(format string) (func(*report.Table) string, error) {
	switch format {
	case "text":
		return (*report.Table).Text, nil
	case "markdown":
		return (*report.Table).Markdown, nil
	case "csv":
		return (*report.Table).CSV, nil
	default:
		return nil, fmt.Errorf("unknown format %q", format)
	}
}

func filterTables(tables []*report.Table, only string) []*report.Table {
	terms := filterTerms(only)
	if len(terms) == 0 {
		return tables
	}
	var keep []*report.Table
	for _, t := range tables {
		if matchesAny(t.Title, terms) {
			keep = append(keep, t)
		}
	}
	return keep
}

func slug(title string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(title) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case b.Len() > 0 && !strings.HasSuffix(b.String(), "-"):
			b.WriteRune('-')
		}
	}
	return strings.Trim(b.String(), "-")
}
