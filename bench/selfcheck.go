package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// child runs one workload in a child process of this same binary — so
// peak RSS, CPU and allocations are per run — and returns its result
// line. The child's report goes to this process's standard error.
func child(workload string, seed uint64, seconds float64, trace int) (resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return resultLine{}, err
	}
	cmd := exec.Command(exe,
		"-workload", workload,
		"-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return resultLine{}, fmt.Errorf("%s (seed %d, trace %d): %w", workload, seed, trace, err)
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res resultLine
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return resultLine{}, fmt.Errorf("%s (seed %d, trace %d): result line: %w", workload, seed, trace, err)
	}
	return res, nil
}

// runAll runs every workload, measured and then traced, each run in its
// own child process, and prints every metric by name and unit: the gated
// end-to-end metrics, the ungated timings of the same measured run on
// both clocks (one that does not apply to the workload is left out), and
// the per-layer metrics of the traced run.
func runAll(seed uint64, seconds float64) error {
	failed := 0
	for _, w := range workloads() {
		for trace, specs := range [][]metricSpec{endToEnd, perLayer} {
			res, err := child(w.Name, seed, seconds, trace)
			if err != nil {
				return err
			}
			failed += res.Failed
			fmt.Printf("%s, trace %d: %d ops attempted, %d failed\n", w.Name, trace, res.Attempted, res.Failed)
			for _, s := range specs {
				fmt.Printf("  %-34s %16.6g %s\n", s.Name, res.Metrics[s.Name].Value, s.Unit)
			}
			if trace == 1 {
				continue
			}
			d, err := readDetail(w.Name)
			if err != nil {
				return err
			}
			for _, t := range timings {
				if v, ok := d.Timings[t.Name]; ok {
					fmt.Printf("  %-34s %16.6g %-8s %12.6g %-4s (not gated)\n", t.Name, v.Ref, t.RefUnit, v.Wall, t.WallUnit)
				}
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed", failed)
	}
	return nil
}

// selfCheckRuns is how many runs per workload make one set: the number
// the driver's acceptance test uses.
const selfCheckRuns = 10

// selfCheck is the driver's acceptance test, run locally: two sets of
// selfCheckRuns runs per workload, each run with its own seed and the
// workloads interleaved (so every workload's runs are spread over the
// whole set, like the host's slow drift). For every gated metric of
// every workload it prints the spread of each set — interquartile range
// over median — and how much worse the second set's median is than the
// first's, both against the metric's bound; a breach exits non-zero. The
// ungated timings (read from each run's detail file) are printed the same
// way without a verdict, with the host's steal share and the rounds'
// max/min on the wall clock, so what kept them out of the gate stays
// visible. The remedy for a gated metric that cannot hold is to demote it
// to the timings, never to widen its bound.
func selfCheck(seed uint64, seconds float64) error {
	defs := workloads()
	// values[set][workload][metric] = one value per run
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = make(map[string]map[string][]float64)
		for _, w := range defs {
			values[set][w.Name] = make(map[string][]float64)
		}
		for r := 0; r < selfCheckRuns; r++ {
			for _, w := range defs {
				res, err := child(w.Name, seed+uint64(set*selfCheckRuns+r), seconds, 0)
				if err != nil {
					return err
				}
				if res.Failed > 0 {
					return fmt.Errorf("%s: %d of %d ops failed", w.Name, res.Failed, res.Attempted)
				}
				vs := values[set][w.Name]
				for name, m := range res.Metrics {
					vs[name] = append(vs[name], m.Value)
				}
				d, err := readDetail(w.Name)
				if err != nil {
					return err
				}
				for name, t := range d.Timings {
					vs[name] = append(vs[name], t.Ref)
					vs[name+" (wall)"] = append(vs[name+" (wall)"], t.Wall)
				}
				vs["host.steal_frac"] = append(vs["host.steal_frac"], d.StealFrac)
				vs["host.round_spread"] = append(vs["host.round_spread"], d.RawSpread)
			}
		}
	}

	breaches := 0
	fmt.Printf("%-13s %-22s %8s %12s %8s %12s %8s %8s %7s\n",
		"workload", "metric", "bound", "median1", "spread1", "median2", "spread2", "worse", "")
	row := func(w, name, better string, bound float64) {
		a, b := values[0][w][name], values[1][w][name]
		if len(a) == 0 {
			return // not applicable to this workload
		}
		ma, mb := median(a), median(b)
		worse := 0.0 // a steal share of zero has no relative change
		if ma != 0 {
			worse = (mb - ma) / ma
		}
		if better == "higher" {
			worse = -worse
		}
		verdict, limit := "", "ungated"
		if bound > 0 {
			verdict, limit = "ok", fmt.Sprintf("%.1f%%", 100*bound)
			// The set-up time's spread is reported but not gated (the
			// driver exempts it too); its drift between the sets is.
			if (name != "setup_s" && (spread(a) > bound || spread(b) > bound)) || worse > bound {
				verdict = "BREACH"
				breaches++
			}
		}
		fmt.Printf("%-13s %-22s %8s %12.5g %7.2f%% %12.5g %7.2f%% %+7.2f%% %7s\n",
			w, name, limit, ma, 100*spread(a), mb, 100*spread(b), 100*worse, verdict)
	}
	for _, w := range defs {
		for _, s := range endToEnd {
			row(w.Name, s.Name, s.Better, s.Bound)
		}
		for _, t := range timings {
			row(w.Name, t.Name, t.Better, 0)
			row(w.Name, t.Name+" (wall)", t.Better, 0)
		}
		row(w.Name, "host.steal_frac", "lower", 0)
		row(w.Name, "host.round_spread", "lower", 0)
	}
	if breaches > 0 {
		return fmt.Errorf("%d gated metrics outside their bounds", breaches)
	}
	return nil
}

// readDetail reads the detail file the last measured run of workload
// left behind.
func readDetail(workload string) (detail, error) {
	var d detail
	data, err := os.ReadFile(filepath.Join(filepath.FromSlash(outRoot), "detail-"+workload+".json"))
	if err != nil {
		return d, err
	}
	return d, json.Unmarshal(data, &d)
}

// spread is the driver's noise measure: the distance between the first
// and the third quartile as a share of the median.
func spread(vs []float64) float64 {
	q1, q3 := quartiles(vs)
	if q1 == q3 {
		return 0 // also when every value, and so the median, is zero
	}
	return (q3 - q1) / median(vs)
}
