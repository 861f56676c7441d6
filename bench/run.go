package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"complexobj"
	"complexobj/internal/server"
	"complexobj/internal/snapshot"
	"complexobj/internal/store"
)

// runConfig parameterizes one run of one workload.
type runConfig struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	// WorkDir receives the run's private temp dirs (snapshots, WAL);
	// OutDir the trace and detail files.
	WorkDir string
	OutDir  string
	// Scale multiplies every round's op count; 1 is the 2-vCPU sizing,
	// the unit tests run a tiny fraction of it.
	Scale float64
	// Setups overrides how many cold set-ups are timed (0: the workload's
	// own count); the unit tests time one.
	Setups int
	// Objects is the size of the generated extension and Loops the loop
	// count of the `tables` reproduction: the paper's 1500 and 300, except
	// in the unit tests.
	Objects int
	Loops   int
	// NewReference starts the reference clock: a sidecar process in a
	// real run, the same loop in-process in the unit tests (a test binary
	// cannot re-execute itself as the sidecar).
	NewReference func() (reference, error)
}

func (c runConfig) roundOps(def workloadDef) int {
	return max(def.Clients, int(float64(def.RoundOps)*c.Scale))
}

func (c runConfig) setups(def workloadDef) int {
	if c.Setups > 0 {
		return c.Setups
	}
	return def.Setups
}

// detail is the per-run record written beside the traces: everything the
// one-line result leaves out — the environment, the ungated timings,
// every round on both clocks, and how much the host moved.
type detail struct {
	Workload   string                 `json:"workload"`
	Why        string                 `json:"why"`
	Env        environment            `json:"environment"`
	Clients    int                    `json:"closed_loop_clients"`
	RoundOps   int                    `json:"ops_per_round"`
	Samples    int                    `json:"latency_samples"`
	OpsHash    string                 `json:"op_sequence_hash"`
	Clock      string                 `json:"clock"`
	Metrics    map[string]float64     `json:"metrics"`
	Timings    map[string]timingValue `json:"timings_not_gated"`
	SetupS     []float64              `json:"setup_s"`
	SetupRawS  []float64              `json:"setup_s_wall"`
	Warmup     roundStats             `json:"warmup_round"`
	Rounds     []roundStats           `json:"rounds"`
	HostMedian float64                `json:"host_speed_median"`
	HostMin    float64                `json:"host_speed_min"`
	HostMax    float64                `json:"host_speed_max"`
	RawSpread  float64                `json:"rounds_wall_max_over_min"`
	RefSpread  float64                `json:"rounds_ref_max_over_min"`
	StealFrac  float64                `json:"host_steal_frac"`
	RSSScope   string                 `json:"peak_rss_scope"`
	MeasuredS  float64                `json:"measured_wall_s"`
	Referee    []string               `json:"referee"`
}

// note records the outcome of one referee check.
func (m *measured) note(ok bool, format string, args ...any) {
	verdict := "ok: "
	if !ok {
		verdict = "FAIL: "
	}
	m.referee = append(m.referee, verdict+fmt.Sprintf(format, args...))
}

// check is note for a miss the client loop could not see: it also counts
// the missed ops as failed.
func (m *measured) check(ok bool, misses int, format string, args ...any) {
	m.note(ok, format, args...)
	if !ok {
		m.failed += max(1, misses)
	}
}

// roundSpread is max/min of val over the rounds: 1.0 on a silent host.
func roundSpread(rounds []roundStats, val func(roundStats) float64) float64 {
	lo, hi := val(rounds[0]), val(rounds[0])
	for _, r := range rounds[1:] {
		lo, hi = min(lo, val(r)), max(hi, val(r))
	}
	if lo == 0 {
		return 0
	}
	return hi / lo
}

func rawOpsPerS(r roundStats) float64 { return r.OpsPerS }
func refOpsPerS(r roundStats) float64 { return r.RefOpsPerS }

// measureTables runs the `tables` workload.
func measureTables(cfg runConfig, def workloadDef, ref reference) (*measured, error) {
	m := &measured{opsHash: fmt.Sprintf("tables:workload-seed=%d", cfg.Seed)}
	var oracle string
	for i := 0; i < cfg.setups(def); i++ {
		var out string
		if err := m.timedSetup(ref, func() (err error) {
			out, err = tablesOracle(cfg)
			return err
		}); err != nil {
			return nil, fmt.Errorf("tables oracle: %w", err)
		}
		if i > 0 && out != oracle {
			return nil, fmt.Errorf("tables oracle is not deterministic (set-up %d differs from set-up 0)", i)
		}
		oracle = out
	}
	err := m.timedRounds(cfg.roundOps(def), cfg.Seconds, ref, tablesRound(cfg, def, oracle))
	m.note(m.failed == 0, "every op's rendered tables equal the mem/workers=1 oracle (%d bytes)", len(oracle))
	return m, err
}

// tablesRound returns the round function of the `tables` workload: n
// fresh reproduction runs, each compared with the oracle byte for byte
// once the round's clock has stopped.
func tablesRound(cfg runConfig, def workloadDef, oracle string) roundFunc {
	outs := make([]string, cfg.roundOps(def))
	return func(first, n int, lat []int64) roundStats {
		r := runRound(first, n, def.Clients, lat, func(_, i int) bool {
			out, err := tablesOp(nil, i, cfg)
			outs[i-first] = out
			return err == nil
		})
		for _, out := range outs[:n] {
			if out != "" && out != oracle {
				r.Failed++
			}
		}
		return r
	}
}

// measureServed runs one serve_* workload.
func measureServed(cfg runConfig, def workloadDef, ref reference) (*measured, error) {
	m := &measured{}
	var env *serveEnv
	defer func() {
		if env != nil {
			env.close()
		}
	}()
	for i := 0; i < cfg.setups(def); i++ {
		if env != nil {
			if err := env.close(); err != nil {
				return nil, err
			}
			env = nil
		}
		dir, err := os.MkdirTemp(cfg.WorkDir, def.Name+"-")
		if err != nil {
			return nil, err
		}
		if err := m.timedSetup(ref, func() (err error) {
			env, err = startServe(nil, dir, cfg, def)
			return err
		}); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", def.Name, err)
		}
	}

	w, err := newServedWorkload(def, env, cfg.Seed)
	if err != nil {
		return nil, err
	}
	m.opsHash = w.seq.hash(4096)
	var before server.InfoResponse
	if err := env.getJSON("/info", &before); err != nil {
		return nil, err
	}
	if err := m.timedRounds(cfg.roundOps(def), cfg.Seconds, ref, w.round); err != nil {
		return nil, err
	}
	if err := refereeServed(m, w, before); err != nil {
		return nil, err
	}
	return m, nil
}

// refereeServed checks what the client loop could not: that the server
// saw every cell behave deterministically, and — for the committing
// workload — that every acknowledged commit is counted and survives a
// restart.
func refereeServed(m *measured, w *servedWorkload, before server.InfoResponse) error {
	env := w.env
	var stats server.StatsResponse
	if err := env.getJSON("/stats", &stats); err != nil {
		return err
	}
	divergent, unsupported := 0, 0
	for _, c := range stats.Cells {
		if c.Divergent {
			divergent++
		}
		if !c.Supported {
			unsupported++
		}
	}
	m.check(divergent == 0, divergent, "/stats: %d divergent of %d cells", divergent, len(stats.Cells))
	m.check(unsupported == 0, unsupported, "/stats: %d unsupported cells", unsupported)
	m.check(stats.DroppedCells == 0, int(stats.DroppedCells), "/stats: %d dropped cells", stats.DroppedCells)
	if !w.def.WAL {
		return nil
	}

	var after server.InfoResponse
	if err := env.getJSON("/info", &after); err != nil {
		return err
	}
	if before.Durability == nil || after.Durability == nil {
		return fmt.Errorf("%s: server reports no durability block", w.def.Name)
	}
	acked := w.acked.Load()
	counted := after.Durability.Commits - before.Durability.Commits
	lost := acked - counted
	m.check(lost == 0, int(max(lost, -lost)), "acked commits %d == server commit-counter delta %d", acked, counted)

	// Restart: close the server, reopen the WAL directory and recover. The
	// generation each model recovers to (checkpointed generations plus
	// replayed batches) must be the one the server had acknowledged.
	served := make(map[string]uint64)
	for _, p := range after.Models {
		served[p.Model] = p.Gen
	}
	if err := env.stopServer(); err != nil {
		return err
	}
	h, err := openCommitHarness(env.walDir)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	defer h.close()
	var total uint64
	for i, k := range complexobj.AllModels() {
		sc, err := snapshot.StatSidecar(env.walDir, store.AllKinds()[i])
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		got := sc.Gen + h.bases[k].Gen()
		total += got
		want := served[k.String()]
		missing := int(max(want, got) - min(want, got))
		m.check(got == want, missing, "%s recovers to generation %d (checkpointed %d + replayed %d), served %d",
			k, got, sc.Gen, h.bases[k].Gen(), want)
	}
	m.check(int64(total) == after.Durability.Commits, 1,
		"recovered generations sum to %d, server acknowledged %d commits (%d batches replayed)", total, after.Durability.Commits, h.replayed)
	return nil
}

// runMeasured is the `--trace 0` run: set-ups, warm-up, measured rounds,
// referee; it reports every end-to-end metric.
func runMeasured(cfg runConfig, def workloadDef) (resultLine, error) {
	steal := startStealMeter()
	ref, err := cfg.NewReference()
	if err != nil {
		return resultLine{}, err
	}
	var m *measured
	if len(def.Cells) == 0 {
		m, err = measureTables(cfg, def, ref)
	} else {
		m, err = measureServed(cfg, def, ref)
	}
	if cerr := ref.close(); err == nil && cerr != nil {
		err = fmt.Errorf("reference: %w", cerr)
	}
	if err != nil {
		return resultLine{}, err
	}
	values, timing := m.gated(), m.timings(def.Clients > 1)
	values["peak_rss_mb"] = peakRSSMiB()
	metrics, err := withUnits(endToEnd, values)
	if err != nil {
		return resultLine{}, err
	}

	d := detail{
		Workload:  def.Name,
		Why:       def.Why,
		Env:       readEnvironment(cfg.WorkDir, cfg.Seed),
		Clients:   def.Clients,
		RoundOps:  cfg.roundOps(def),
		Samples:   len(m.latencies),
		OpsHash:   m.opsHash,
		Clock:     fmt.Sprintf("reference_clock values and setup_s are wall times multiplied by host_speed = reference loop speed / %.0f per s, round by round", referenceNominal),
		Metrics:   values,
		Timings:   timing,
		SetupS:    m.setupS,
		SetupRawS: m.setupRaw,
		Warmup:    m.warmup,
		Rounds:    m.rounds,
		RawSpread: roundSpread(m.rounds, rawOpsPerS),
		RefSpread: roundSpread(m.rounds, refOpsPerS),
		StealFrac: steal.frac(),
		RSSScope:  "whole process, set-ups included",
		Referee:   m.referee,
	}
	if m.rssReset {
		d.RSSScope = "warm-up and measured rounds (high-water mark reset after the set-ups)"
	}
	hosts := make([]float64, len(m.rounds))
	for i, r := range m.rounds {
		hosts[i] = r.Host
		d.MeasuredS += r.WallS
	}
	d.HostMedian, d.HostMin, d.HostMax = median(hosts), slices.Min(hosts), slices.Max(hosts)
	if err := writeJSONFile(filepath.Join(cfg.OutDir, "detail-"+def.Name+".json"), d); err != nil {
		return resultLine{}, err
	}
	printDetail(d)
	return resultLine{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: metrics}, nil
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printDetail writes the human-readable account of a measured run to
// standard error (standard output carries the result line).
func printDetail(d detail) {
	e := d.Env
	fmt.Fprintf(os.Stderr, "%s: seed %d, %d closed-loop client(s), %d rounds of %d ops, nproc %d, GOMAXPROCS %d, %s, wal_fs %s\n",
		d.Workload, e.Seed, d.Clients, len(d.Rounds), d.RoundOps, e.NProc, e.GOMAXPROCS, e.GoVersion, e.WALFS)
	fmt.Fprintf(os.Stderr, "  set-ups: %.3f s on the reference clock (wall %.3f)\n", d.SetupS, d.SetupRawS)
	fmt.Fprintf(os.Stderr, "  rounds: %.1f s of wall time; host speed median %.3f (min %.3f, max %.3f) of nominal; round max/min %.3f on the wall clock, %.3f on the reference clock; host steal %.4f\n",
		d.MeasuredS, d.HostMedian, d.HostMin, d.HostMax, d.RawSpread, d.RefSpread, d.StealFrac)
	for _, s := range endToEnd {
		fmt.Fprintf(os.Stderr, "  %-16s %14.6g %-8s gated, bound %.0f%%\n", s.Name, d.Metrics[s.Name], s.Unit, 100*s.Bound)
	}
	fmt.Fprintf(os.Stderr, "  not gated (%d latency samples):  reference clock              wall clock\n", d.Samples)
	for _, t := range timings {
		if v, ok := d.Timings[t.Name]; ok {
			fmt.Fprintf(os.Stderr, "  %-16s %14.6g %-8s %14.6g %s\n", t.Name, v.Ref, t.RefUnit, v.Wall, t.WallUnit)
		}
	}
	for _, line := range d.Referee {
		fmt.Fprintf(os.Stderr, "  referee %s\n", line)
	}
}
