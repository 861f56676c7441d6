package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"complexobj"
	"complexobj/internal/router"
	"complexobj/internal/server"
	"complexobj/internal/shard"
)

// replayCycles is how many times the depth replay walks the workload's
// cell list (fewer when the time budget runs out first).
const replayCycles = 200

// runTraced is the `--trace 1` run. It measures no end-to-end metric;
// it prices the layers: set-up spans, the depth replay of the workload's
// own ops (or one span per section for `tables`), exact per-op counts,
// and the unit probes. Spans stay in memory and are written to
// <OutDir>/trace-<workload>.json at the end.
func runTraced(cfg runConfig, def workloadDef) (resultLine, error) {
	steal := startStealMeter()
	tr := newTracer()
	values := make(map[string]float64, len(perLayer))
	for _, s := range perLayer {
		values[s.Name] = 0 // a layer the workload does not reach reads 0
	}
	p := &prober{scale: cfg.Scale, values: values}
	res := resultLine{}
	ref, err := cfg.NewReference()
	if err != nil {
		return res, err
	}
	defer ref.close()

	dir, err := os.MkdirTemp(cfg.WorkDir, "traced-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	snapshotPath := filepath.Join(dir, "probe.codb")
	commitDir := filepath.Join(dir, "commitlog")

	// Set-up, with one span per call into a layer.
	root := tr.begin("setup", 0, 0)
	stations, dbs, err := buildSnapshot(tr, root, cfg.genConfig(), snapshotPath, commitDir, true)
	if err != nil {
		return res, err
	}
	err = tr.do("store.freeze", root, 0, func() error {
		b, err := dbs[0].Freeze()
		if err == nil {
			err = b.Close()
		}
		return err
	})
	for _, db := range dbs {
		db.Close()
	}
	if err != nil {
		return res, err
	}
	err = tr.do("snapshot.openbase", root, 0, func() error {
		for _, k := range complexobj.AllModels() {
			b, err := complexobj.OpenBase(snapshotPath, k)
			if err != nil {
				return err
			}
			if err := b.Close(); err != nil {
				return err
			}
		}
		return nil
	})
	tr.end(root)
	if err != nil {
		return res, err
	}
	for name, vs := range byName(tr.spans, span.dur) {
		var sum float64
		for _, v := range vs {
			sum += v
		}
		switch name {
		case "cobench.generate", "store.load", "store.freeze", "snapshot.write", "snapshot.openbase":
			values[name+"_ms"] = sum / 1e6 // store.load: the five models together
		}
	}

	// The workload's own rounds with tracing off, a fifth as long as a
	// measured run's: the ungated end-to-end timings on both clocks, and
	// how much the host moved while this pass ran.
	m := &measured{}
	rounds := func(round roundFunc) error {
		return m.timedRounds(cfg.roundOps(def), cfg.Seconds/5, ref, round)
	}
	if len(def.Cells) == 0 {
		err = traceTables(cfg, def, tr, rounds, m, values)
	} else {
		err = traceServed(cfg, def, tr, rounds, m, values, commitDir)
	}
	if err != nil {
		return res, err
	}
	res.Attempted += m.attempted
	res.Failed += m.failed
	for name, v := range m.timings(def.Clients > 1) {
		values["run."+name], values["run."+name+"_wall"] = v.Ref, v.Wall
	}
	hosts := make([]float64, len(m.rounds))
	for i, r := range m.rounds {
		hosts[i] = r.Host
	}
	values["host.speed"] = median(hosts)
	values["host.round_spread"] = roundSpread(m.rounds, rawOpsPerS)
	if fsType(cfg.WorkDir) == "tmpfs" {
		values["host.wal_on_tmpfs"] = 1
	}

	if err := p.probeAll(snapshotPath, stations, dir); err != nil {
		return res, err
	}
	if err := p.probeCommitLog(commitDir); err != nil {
		return res, fmt.Errorf("probe commit log: %w", err)
	}
	values["host.steal_frac"] = steal.frac()
	eq := equationOne(values)
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return res, err
	}
	if err := tr.write(filepath.Join(cfg.OutDir, "trace-"+def.Name+".json"), readEnvironment(cfg.WorkDir, cfg.Seed), values, eq); err != nil {
		return res, err
	}
	printLayers(def.Name, values, eq)
	res.Correct = res.Failed == 0
	res.Metrics, err = withUnits(perLayer, values)
	return res, err
}

// traceTables runs the reproduction's untraced rounds and then two ops
// with spans: one span per section Build plus one for rendering.
func traceTables(cfg runConfig, def workloadDef, tr *tracer, rounds func(roundFunc) error, m *measured, values map[string]float64) error {
	oracle, err := tablesOracle(cfg)
	if err != nil {
		return err
	}
	if err := rounds(tablesRound(cfg, def, oracle)); err != nil {
		return err
	}
	untraced := math.Inf(1)
	for _, r := range m.rounds {
		untraced = min(untraced, r.WallS/float64(r.Ops))
	}
	traced := math.Inf(1)
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		out, err := tablesOp(tr, i, cfg)
		traced = min(traced, time.Since(t0).Seconds())
		if err != nil {
			return err
		}
		m.attempted++
		if out != oracle {
			m.failed++
		}
	}
	values["trace.overhead_frac"] = traced/untraced - 1
	for name, vs := range byName(tr.spans, span.dur) {
		if strings.HasPrefix(name, "experiments.") || name == "report.render" {
			values[name+"_ms"] = slices.Min(vs) / 1e6
		}
	}
	return nil
}

// traceServed runs a served workload's untraced rounds, then the depth
// replay, and derives the request-path figures and the per-op counts.
func traceServed(cfg runConfig, def workloadDef, tr *tracer, rounds func(roundFunc) error, m *measured, values map[string]float64, commitDir string) error {
	envDir, err := os.MkdirTemp(cfg.WorkDir, def.Name+"-")
	if err != nil {
		return err
	}
	env, err := startServe(nil, envDir, cfg, def)
	if err != nil {
		return err
	}
	defer env.close()
	w, err := newServedWorkload(def, env, cfg.Seed)
	if err != nil {
		return err
	}
	if err := rounds(w.round); err != nil {
		return err
	}

	// The pools of the deepest replay level.
	var pools map[complexobj.ModelKind]*complexobj.ViewPool
	var clog *complexobj.CommitLog
	if def.WAL {
		h, err := openCommitHarness(commitDir)
		if err != nil {
			return err
		}
		defer h.close()
		pools, clog = h.pools, h.clog
	} else {
		var closePools func()
		if pools, closePools, err = readPools(env.snapshot); err != nil {
			return err
		}
		defer closePools()
	}

	cells := len(def.Cells)
	cycles := replayCycles
	if cfg.Scale < 1 {
		cycles = 2
	}
	first := len(tr.spans)
	rp, err := replayServed(tr, w, pools, clog, cells*cycles, time.Duration(cfg.Seconds*0.3*float64(time.Second)))
	if err != nil {
		return err
	}
	spans := tr.spans[first:]

	// The same ops once more, single client, without spans: what the
	// traced d0 executions are compared with.
	t0 := time.Now()
	for i := 0; i < rp.ops; i++ {
		if !w.do(0, i) {
			m.failed++
		}
	}
	untraced := time.Since(t0)
	m.attempted += 4 * rp.ops // three depths and the untraced pass
	values["trace.overhead_frac"] = rp.d0Total.Seconds()/untraced.Seconds() - 1

	self := selfTimes(tr.spans)
	selfFig := spanFigures(spans, cells, func(s span) int64 { return self[s.ID] })
	durFig := spanFigures(spans, cells, span.dur)
	values["http.self_us"] = selfFig["http.client_do"] / 1e3
	values["server.self_us"] = selfFig["server.serve_http"] / 1e3
	values["viewpool.acquire_us"] = durFig["viewpool.acquire"] / 1e3
	values["viewpool.release_us"] = durFig["viewpool.release"] / 1e3
	values["workload.run_us"] = durFig["workload.run"] / 1e3
	values["view.commit_us"] = durFig["view.commit"] / 1e3

	ops := float64(rp.ops)
	values["disk.read_calls_per_op"] = float64(rp.raw.ReadCalls) / ops
	values["disk.pages_read_per_op"] = float64(rp.raw.PagesRead) / ops
	values["disk.write_calls_per_op"] = float64(rp.raw.WriteCalls) / ops
	values["disk.pages_written_per_op"] = float64(rp.raw.PagesWritten) / ops
	values["buffer.fixes_per_op"] = float64(rp.raw.BufferFixes) / ops
	if rp.raw.BufferFixes > 0 {
		values["buffer.hit_ratio"] = float64(rp.raw.BufferHits) / float64(rp.raw.BufferFixes)
	}
	values["store.dirty_kb_per_op"] = rp.dirtyKB / ops
	values["store.promote_copy_kb_per_op"] = rp.promoteKB / ops

	// Lifetime counters of the measured server: every request of this
	// pass, the two-client rounds included.
	var info server.InfoResponse
	if err := env.getJSON("/info", &info); err != nil {
		return err
	}
	var created, reused, stale, rebuilt int64
	for _, m := range info.Models {
		created += m.Created
		reused += m.Reused
		stale += m.Stale
		rebuilt += m.Rebuilt
	}
	if acquired := created + reused; acquired > 0 {
		values["viewpool.reuse_ratio"] = float64(reused) / float64(acquired)
		values["viewpool.stale_per_kop"] = 1000 * float64(stale) / float64(acquired)
		values["viewpool.rebuilt_per_kop"] = 1000 * float64(rebuilt) / float64(acquired)
	}
	if d := info.Durability; d != nil && d.Commits > 0 {
		values["wal.bytes_per_payload_byte"] = d.WriteAmplification
		values["wal.commits_per_sync"] = float64(d.Commits) / float64(max(1, d.Syncs))
		values["commitlog.checkpoints_per_kop"] = 1000 * float64(d.Checkpoints) / float64(d.Commits)
	}

	if def.Name == "serve_point" {
		hop, err := routerHop(w, cfg.WorkDir, rp.ops)
		if err != nil {
			return fmt.Errorf("router hop: %w", err)
		}
		values["router.hop_us"] = hop / 1e3
	}
	return nil
}

// routerHop sends the first n ops of w both straight to the full server
// and through internal/router in front of two in-process backends that
// split the five models between them, and returns the extra time per op
// in ns (perCellMean of routed minus direct). A reference number for
// router work; no end-to-end metric depends on it.
func routerHop(w *servedWorkload, workDir string, n int) (float64, error) {
	dir, err := os.MkdirTemp(workDir, "router-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	var names []string
	for _, k := range complexobj.AllModels() {
		names = append(names, k.String())
	}
	m, err := shard.Partition(names, 2, shard.StrategyRange)
	if err != nil {
		return 0, err
	}
	mapPath := filepath.Join(dir, "bench.shards.json")
	if err := m.Write(mapPath); err != nil {
		return 0, err
	}
	var backends []string
	for _, sh := range m.Shards {
		// A shard without a segment serves its models from the snapshot.
		srv, err := server.New(server.Config{ShardMap: mapPath, Snapshot: w.env.snapshot, Shards: []int{sh.ID}})
		if err != nil {
			return 0, err
		}
		defer srv.Close()
		url, stop, err := listen(srv.Handler())
		if err != nil {
			return 0, err
		}
		defer stop()
		backends = append(backends, url)
	}
	rt, err := router.New(router.Config{MapPath: mapPath, Backends: backends})
	if err != nil {
		return 0, err
	}
	defer rt.Close()
	routed, stop, err := listen(rt.Handler())
	if err != nil {
		return 0, err
	}
	defer stop()
	defer w.env.client.CloseIdleConnections()

	var buf bytes.Buffer
	get := func(url string) (time.Duration, error) {
		t0 := time.Now()
		resp, err := w.env.client.Get(url)
		if err != nil {
			return 0, err
		}
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		d := time.Since(t0)
		if err == nil && (resp.StatusCode != http.StatusOK || !bytes.Contains(buf.Bytes(), wantSupported)) {
			err = fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(buf.Bytes()))
		}
		return d, err
	}
	cells := len(w.def.Cells)
	extra := make(map[int][]float64)
	for i := 0; i < n; i++ {
		direct := w.url(i)
		dDirect, err := get(direct)
		if err != nil {
			return 0, err
		}
		dRouted, err := get(routed + strings.TrimPrefix(direct, w.env.base))
		if err != nil {
			return 0, err
		}
		extra[i%cells] = append(extra[i%cells], float64(dRouted-dDirect))
	}
	return perCellMean(extra), nil
}

// equation is Equation 1 of the paper applied to time instead of I/O:
// the replayed ops' exact counts times the probes' unit costs, set
// against the measured workload.run_us.
type equation struct {
	RunUS         float64 `json:"workload_run_us"`
	BufferUS      float64 `json:"buffer_and_device_us"` // hits·fix_hit + misses·fix_miss
	WriteUS       float64 `json:"write_us"`             // pages_written·(mark_dirty + write_per_page)
	UnexplainedUS float64 `json:"unexplained_us"`       // decode, model logic, runner, allocation
}

func equationOne(v map[string]float64) equation {
	fixes := v["buffer.fixes_per_op"]
	hits := fixes * v["buffer.hit_ratio"]
	e := equation{
		RunUS:    v["workload.run_us"],
		BufferUS: (hits*v["buffer.fix_hit_ns"] + (fixes-hits)*v["buffer.fix_miss_ns"]) / 1e3,
		WriteUS:  v["disk.pages_written_per_op"] * (v["buffer.mark_dirty_ns"] + v["disk.write_ns_per_page"]) / 1e3,
	}
	e.UnexplainedUS = e.RunUS - e.BufferUS - e.WriteUS
	return e
}

// printLayers writes the per-layer account of a traced run to standard
// error.
func printLayers(workload string, values map[string]float64, eq equation) {
	fmt.Fprintf(os.Stderr, "%s: traced pass, per-layer metrics (0 = not reached by this workload)\n", workload)
	names := make([]string, 0, len(perLayer))
	units := make(map[string]string, len(perLayer))
	for _, s := range perLayer {
		names = append(names, s.Name)
		units[s.Name] = s.Unit
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %14.4f %s\n", name, values[name], units[name])
	}
	if eq.RunUS > 0 {
		fmt.Fprintf(os.Stderr, "  Equation 1 on time: workload.run %.1f us = buffer+device %.1f us (fixes x unit cost) + writes %.1f us + unexplained %.1f us (decode, model logic, runner)\n",
			eq.RunUS, eq.BufferUS, eq.WriteUS, eq.UnexplainedUS)
	}
}
