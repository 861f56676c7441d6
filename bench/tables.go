package main

import (
	"fmt"
	"runtime"
	"strings"

	"complexobj/cobench"
	"complexobj/experiments"
	"complexobj/report"
)

// renderTables renders every table to text, like `cotables -format text`.
func renderTables(ts []*report.Table) string {
	var sb strings.Builder
	for _, t := range ts {
		sb.WriteString(t.Text())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// tablesOracle runs the whole reproduction on the mem backend with one
// worker — the default-flag `cotables` path, and the reference every
// measured op's output must equal byte for byte.
func tablesOracle(cfg runConfig) (string, error) {
	return runTables(nil, 0, experiments.Config{Gen: cfg.genConfig(), Workload: cfg.tablesWorkload(), Workers: 1})
}

// tablesWorkload is the paper's run parameters with the benchmark seed
// driving the random object selections of queries 2 and 3.
func (c runConfig) tablesWorkload() cobench.Workload {
	w := cobench.DefaultWorkload()
	w.Seed = c.Seed
	w.Loops = c.Loops
	return w
}

// tablesOp is one measured op: a fresh Suite, like one `cotables
// -backend cow -workers nproc` invocation.
func tablesOp(tr *tracer, op int, cfg runConfig) (string, error) {
	return runTables(tr, op, experiments.Config{Gen: cfg.genConfig(), Workload: cfg.tablesWorkload(), Backend: "cow", Workers: runtime.NumCPU()})
}

// runTables builds every section of the reproduction and renders it. With
// a tracer, each section's Build and the rendering are child spans of one
// span per op.
func runTables(tr *tracer, op int, cfg experiments.Config) (out string, err error) {
	s := experiments.New(cfg)
	defer func() {
		if cerr := s.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	root := tr.begin("tables.op", 0, op)
	defer tr.end(root)
	var tables []*report.Table
	for i, sec := range experiments.Sections() {
		name := fmt.Sprintf("experiments.section%d", i)
		if i < len(sectionMetrics) && sectionMetrics[i] != "" {
			name = strings.TrimSuffix(sectionMetrics[i], "_ms")
		}
		if err := tr.do(name, root, op, func() error {
			ts, err := sec.Build(s)
			tables = append(tables, ts...)
			return err
		}); err != nil {
			return "", err
		}
	}
	err = tr.do("report.render", root, op, func() error {
		out = renderTables(tables)
		return nil
	})
	return out, err
}
