// Command bench is the repository's one benchmark: four workloads over
// the whole stack, the end-to-end metrics this host can repeat each with a
// regression bound, the end-to-end timings it cannot repeat reported on
// two clocks without one, and a traced pass that prices each layer. See
// README.md in this directory for the method and BENCHMARK.json at the
// repository root for the contract.
//
// Usage, from the repository root:
//
//	go run ./bench -workload NAME [-seed N] [-seconds S] [-trace 0|1]
//	go run ./bench              # every workload, measured then traced
//	go run ./bench -selfcheck   # the driver's acceptance test, run locally
//
// The last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}; everything meant for people
// goes to standard error and to bench/out/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: tables, serve_point, serve_scan, serve_commit (empty: all of them, each in a child process)")
		seed      = flag.Uint64("seed", 1993, "seed every input is derived from")
		seconds   = flag.Float64("seconds", 20, "how long the measured rounds of one run last in total")
		trace     = flag.Int("trace", 0, "0: measure the end-to-end metrics; 1: traced pass reporting the per-layer metrics and the ungated timings")
		selfcheck = flag.Bool("selfcheck", false, "run the driver's acceptance test: two sets of ten runs per workload, spreads and medians against the bounds")
		sidecar   = flag.Bool("reference", false, "internal: serve reference-clock bursts on standard input/output (see reference.go)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	// The server logs every checkpoint; keep that out of the report.
	log.SetOutput(io.Discard)

	switch {
	case *sidecar:
		if err := serveReference(os.Stdin, os.Stdout); err != nil {
			fatal(err)
		}
	case *selfcheck:
		if err := selfCheck(*seed, *seconds); err != nil {
			fatal(err)
		}
	case *workload == "":
		if err := runAll(*seed, *seconds); err != nil {
			fatal(err)
		}
	default:
		line, err := runOne(*workload, *seed, *seconds, *trace == 1)
		if err != nil {
			fatal(err)
		}
		out, err := json.Marshal(line)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
		if !line.Correct {
			fmt.Fprintf(os.Stderr, "bench: %d of %d ops failed\n", line.Failed, line.Attempted)
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// Directories, relative to the working directory (the repository root).
// Everything the benchmark writes stays under these two.
const (
	workRoot = ".bench_build/tmp" // snapshots, WAL, checkpoint sidecars
	outRoot  = "bench/out"        // trace-*.json, detail-*.json
)

// runOne runs one workload in this process.
func runOne(name string, seed uint64, seconds float64, traced bool) (resultLine, error) {
	def, ok := workloadByName(name)
	if !ok {
		var names []string
		for _, w := range workloads() {
			names = append(names, w.Name)
		}
		return resultLine{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	if _, err := os.Stat("go.mod"); err != nil {
		return resultLine{}, fmt.Errorf("run from the repository root: %w", err)
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return resultLine{}, err
	}
	work, err := os.MkdirTemp(workRoot, name+"-")
	if err != nil {
		return resultLine{}, err
	}
	defer os.RemoveAll(work)
	cfg := runConfig{
		Workload:     name,
		Seed:         seed,
		Seconds:      seconds,
		Trace:        traced,
		WorkDir:      work,
		OutDir:       filepath.FromSlash(outRoot),
		Scale:        1,
		Objects:      1500,
		Loops:        300,
		NewReference: func() (reference, error) { return startSidecar() },
	}
	if traced {
		return runTraced(cfg, def)
	}
	return runMeasured(cfg, def)
}
