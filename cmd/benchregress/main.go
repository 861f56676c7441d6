// benchregress compares a `go test -bench -benchmem` run against a
// committed baseline and fails when allocs/op or B/op moves off its row:
// a regression, or an improvement the baseline has not taken in.
// Wall-clock numbers are reported but never gated: time is noisy on
// shared CI machines, while allocation counts and sizes are
// deterministic and must stay pinned. Both are needed: an arena grown
// by doubling is few allocations and many bytes.
//
// Usage:
//
//	benchregress -baseline ci/bench-baseline.txt current.txt
//	go test ./internal/buffer -bench . -benchmem | benchregress -baseline ci/bench-baseline.txt -
//
// Rules:
//   - allocs/op may grow at most -tolerance percent (default 10) over
//     the baseline value;
//   - a baseline of 0 allocs/op is a hard pin: any nonzero count fails;
//   - B/op may grow at most the same percentage, for rows whose baseline
//     is at least 1 KiB/op (below that the column is amortized rounding:
//     `1 B/op` and `14 B/op` rows exist);
//   - a gated column may not fall more than the same percentage below its
//     baseline either: the row is lowered in the change that earned it, so
//     a later regression cannot hide in the slack;
//   - benchmarks present in the baseline but missing from the current
//     run fail (a silently dropped benchmark is not an improvement);
//   - new benchmarks absent from the baseline are reported, not gated.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type result struct {
	nsPerOp     float64
	bytesPerOp  float64
	allocsPerOp float64
	hasAllocs   bool
}

// benchLine matches one benchmark result, e.g.
//
//	BenchmarkFixHit-4   10000   48.12 ns/op   0 B/op   0 allocs/op
//
// A benchmark that calls b.SetBytes prints a throughput column between
// the time and the -benchmem columns; it is skipped.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+[0-9.]+ MB/s)?(?:\s+([0-9.]+) B/op\s+([0-9.]+) allocs/op)?`)

func parse(r io.Reader) (map[string]result, error) {
	out := make(map[string]result)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		res := result{}
		res.nsPerOp, _ = strconv.ParseFloat(m[2], 64)
		if m[3] != "" {
			res.bytesPerOp, _ = strconv.ParseFloat(m[3], 64)
			res.allocsPerOp, _ = strconv.ParseFloat(m[4], 64)
			res.hasAllocs = true
		}
		out[m[1]] = res
	}
	return out, sc.Err()
}

func parseFile(path string) (map[string]result, error) {
	if path == "-" {
		return parse(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse(f)
}

// minGatedBytes is the smallest baseline B/op that is gated.
const minGatedBytes = 1024

// verdict compares one benchmark against its baseline row: the report
// line and whether it passes. tolerance is the allowed drift either way
// in percent.
func verdict(name string, base, cur result, tolerance float64) (string, bool) {
	grew := func(cur, base float64) bool { return cur > base*(1+tolerance/100) }
	fell := func(cur, base float64) bool { return cur < base*(1-tolerance/100) }
	pct := func(cur, base float64) float64 { return 100 * (cur - base) / base }
	gatedBytes := base.bytesPerOp >= minGatedBytes
	switch {
	case !base.hasAllocs || !cur.hasAllocs:
		return fmt.Sprintf("  ok %s: no -benchmem columns, time-only (%.1f ns/op vs %.1f baseline)",
			name, cur.nsPerOp, base.nsPerOp), true
	case base.allocsPerOp == 0 && cur.allocsPerOp > 0:
		return fmt.Sprintf("FAIL %s: %.0f allocs/op, baseline pins 0", name, cur.allocsPerOp), false
	case grew(cur.allocsPerOp, base.allocsPerOp):
		return fmt.Sprintf("FAIL %s: %.0f allocs/op, baseline %.0f (+%.1f%% > %.0f%% tolerance)",
			name, cur.allocsPerOp, base.allocsPerOp, pct(cur.allocsPerOp, base.allocsPerOp), tolerance), false
	case gatedBytes && grew(cur.bytesPerOp, base.bytesPerOp):
		return fmt.Sprintf("FAIL %s: %.0f B/op, baseline %.0f (+%.1f%% > %.0f%% tolerance)",
			name, cur.bytesPerOp, base.bytesPerOp, pct(cur.bytesPerOp, base.bytesPerOp), tolerance), false
	case fell(cur.allocsPerOp, base.allocsPerOp):
		return fmt.Sprintf("FAIL %s: %.0f allocs/op, baseline %.0f (%.1f%% below, past the %.0f%% tolerance): lower this row",
			name, cur.allocsPerOp, base.allocsPerOp, -pct(cur.allocsPerOp, base.allocsPerOp), tolerance), false
	case gatedBytes && fell(cur.bytesPerOp, base.bytesPerOp):
		return fmt.Sprintf("FAIL %s: %.0f B/op, baseline %.0f (%.1f%% below, past the %.0f%% tolerance): lower this row",
			name, cur.bytesPerOp, base.bytesPerOp, -pct(cur.bytesPerOp, base.bytesPerOp), tolerance), false
	}
	return fmt.Sprintf("  ok %s: %.0f allocs/op (baseline %.0f), %.0f B/op (baseline %.0f), %.1f ns/op",
		name, cur.allocsPerOp, base.allocsPerOp, cur.bytesPerOp, base.bytesPerOp, cur.nsPerOp), true
}

func main() {
	baselinePath := flag.String("baseline", "", "committed baseline bench output")
	tolerance := flag.Float64("tolerance", 10, "allowed allocs/op and B/op drift from the baseline in percent")
	flag.Parse()
	if *baselinePath == "" || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchregress -baseline FILE (CURRENT|-)")
		os.Exit(2)
	}
	baseline, err := parseFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchregress: %v\n", err)
		os.Exit(2)
	}
	current, err := parseFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchregress: %v\n", err)
		os.Exit(2)
	}
	if len(baseline) == 0 {
		fmt.Fprintln(os.Stderr, "benchregress: baseline holds no benchmark lines")
		os.Exit(2)
	}

	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	for _, name := range names {
		base := baseline[name]
		cur, ok := current[name]
		if !ok {
			fmt.Printf("FAIL %s: present in baseline, missing from current run\n", name)
			failed = true
			continue
		}
		line, ok := verdict(name, base, cur, *tolerance)
		fmt.Println(line)
		failed = failed || !ok
	}
	var fresh []string
	for name := range current {
		if _, ok := baseline[name]; !ok {
			fresh = append(fresh, name)
		}
	}
	sort.Strings(fresh)
	for _, name := range fresh {
		fmt.Printf(" new %s: not in baseline (add it to ci/bench-baseline.txt)\n", name)
	}
	if failed {
		fmt.Println(strings.Repeat("-", 40))
		fmt.Println("allocation regression, or a baseline row to lower, detected")
		os.Exit(1)
	}
}
