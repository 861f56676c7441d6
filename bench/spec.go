package main

import "fmt"

// The metric and workload tables below are the benchmark's contract with
// its readers. /BENCHMARK.json mirrors them for the driver; a unit test
// keeps the two identical, so the binary never has to find the JSON file
// at run time.

// metricSpec names one reported metric.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression (0 for
	// per-layer metrics, which are never gated).
	Bound float64
}

// endToEnd lists the gated metrics: what a user of the system sees and
// this host can repeat. No bound exceeds a tenth except that of setup_s,
// which the driver's contract requires and wants given the largest bound
// (see README.md "Noise" for the spreads each bound rests on). A metric
// that cannot hold a tenth is not given a wider bound; it is demoted to
// the timings below.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"alloc_kb_per_op", "KiB", "lower", 0.05},
	{"mallocs_per_op", "count", "lower", 0.10},
	{"peak_rss_mb", "MiB", "lower", 0.10},
}

// timingSpec names one end-to-end timing that is reported but not gated:
// on this host two sets of runs of the same code disagree by up to a
// tenth on every one of them, so none can carry a bound of a tenth. Each
// is reported on both clocks: wall time, and reference time (reference.go).
type timingSpec struct {
	Name     string
	RefUnit  string // unit on the reference clock
	WallUnit string
	Better   string
	// Pct is the latency percentile the metric reports (0: not a latency).
	Pct int
}

var timings = []timingSpec{
	{"ops_per_s", "1/ref_s", "1/s", "higher", 0},
	{"lat_p50_ms", "ref_ms", "ms", "lower", 50},
	{"lat_p90_ms", "ref_ms", "ms", "lower", 90},
	{"lat_p99_ms", "ref_ms", "ms", "lower", 99},
	{"cpu_ms_per_op", "ref_ms", "ms", "lower", 0},
}

// timingValue is one timing of one run on both clocks.
type timingValue struct {
	Ref  float64 `json:"reference_clock"`
	Wall float64 `json:"wall_clock"`
}

// storeKinds are the per-kind suffixes of the store.<kind>.* probes, in
// complexobj.AllModels order.
var storeKinds = []string{"dsm", "ddsm", "nsm", "nsmx", "dnsm"}

// sectionMetrics maps experiments.Sections() indices to the name of the
// per-layer metric the section's Build time is reported under ("" for
// the static Table 1).
var sectionMetrics = []string{
	"",
	"experiments.table2_ms",
	"experiments.table3_ms",
	"experiments.matrix_ms",
	"experiments.table7_ms",
	"experiments.table8_ms",
	"experiments.figure5_ms",
	"experiments.figure6_ms",
	"experiments.index_ablation_ms",
	"experiments.policy_ablation_ms",
	"experiments.costs_ms",
	"experiments.distribution_ms",
	"experiments.buffer_sweep_ms",
}

// perLayer lists the single-layer metrics of the traced pass, layer =
// module name. A metric that does not apply to the traced workload (the
// HTTP spans and latencies on `tables`, the section spans on `serve_*`)
// reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	m := func(name, unit, better string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: better} }
	out := []metricSpec{
		// Request path: depth replay of the serve_* ops.
		m("http.self_us", "us", "lower"),
		m("server.self_us", "us", "lower"),
		m("viewpool.acquire_us", "us", "lower"),
		m("viewpool.release_us", "us", "lower"),
		m("workload.run_us", "us", "lower"),
		m("view.commit_us", "us", "lower"),
		m("viewpool.reuse_ratio", "ratio", "higher"),
		m("router.hop_us", "us", "lower"),
		// Exact per-op counts of the replayed ops.
		m("disk.read_calls_per_op", "count", "lower"),
		m("disk.pages_read_per_op", "count", "lower"),
		m("disk.write_calls_per_op", "count", "lower"),
		m("disk.pages_written_per_op", "count", "lower"),
		m("buffer.fixes_per_op", "count", "lower"),
		m("buffer.hit_ratio", "ratio", "higher"),
		m("store.dirty_kb_per_op", "KiB", "lower"),
		m("store.promote_copy_kb_per_op", "KiB", "lower"),
		m("wal.bytes_per_payload_byte", "ratio", "lower"),
		m("wal.commits_per_sync", "ratio", "higher"),
		m("commitlog.checkpoints_per_kop", "1/kop", "lower"),
		m("viewpool.stale_per_kop", "1/kop", "lower"),
		m("viewpool.rebuilt_per_kop", "1/kop", "lower"),
		// Unit probes, read path.
		m("store.view_open_us", "us", "lower"),
		m("store.view_recycle_us", "us", "lower"),
		m("metrics.record_ns", "ns", "lower"),
		m("buffer.fix_hit_ns", "ns", "lower"),
		m("buffer.fix_miss_ns", "ns", "lower"),
		m("buffer.discard_us", "us", "lower"),
		m("disk.read_ns_per_page", "ns", "lower"),
		m("disk.reset_view_us", "us", "lower"),
		m("heap.view_ns", "ns", "lower"),
		m("longobj.readall_us", "us", "lower"),
		m("nf2.decode_ns", "ns", "lower"),
		m("nf2.encode_ns", "ns", "lower"),
		// Unit probes, write path.
		m("buffer.mark_dirty_ns", "ns", "lower"),
		m("disk.write_ns_per_page", "ns", "lower"),
		m("store.view_recycle_dirty_us", "us", "lower"),
		m("store.promote_ms", "ms", "lower"),
		m("wal.commit_us", "us", "lower"),
		m("wal.replay_ms", "ms", "lower"),
		m("commitlog.checkpoint_ms", "ms", "lower"),
		m("commitlog.recover_ms", "ms", "lower"),
		// Set-up spans.
		m("cobench.generate_ms", "ms", "lower"),
		m("store.load_ms", "ms", "lower"),
		m("store.freeze_ms", "ms", "lower"),
		m("snapshot.write_ms", "ms", "lower"),
		m("snapshot.openbase_ms", "ms", "lower"),
		m("report.render_ms", "ms", "lower"),
		// What the traced pass itself costs, how quiet the host was, and
		// whether the WAL's fsyncs went to memory (1) or to a disk (0).
		m("trace.overhead_frac", "frac", "lower"),
		m("host.speed", "ratio", "higher"),
		m("host.steal_frac", "frac", "lower"),
		m("host.round_spread", "ratio", "lower"),
		m("host.wal_on_tmpfs", "bool", "higher"),
	}
	// The ungated end-to-end timings, from the pass's untraced rounds:
	// run.<name> on the reference clock, run.<name>_wall on the wall clock.
	for _, t := range timings {
		out = append(out, m("run."+t.Name, t.RefUnit, t.Better), m("run."+t.Name+"_wall", t.WallUnit, t.Better))
	}
	for _, k := range storeKinds {
		if k != "nsm" { // pure NSM has no object addresses
			out = append(out, m("store."+k+".fetch_us", "us", "lower"))
		}
		out = append(out,
			m("store."+k+".navigate_us", "us", "lower"),
			m("store."+k+".scan_ms", "ms", "lower"),
			m("store."+k+".update_us", "us", "lower"))
	}
	for _, name := range sectionMetrics {
		if name != "" {
			out = append(out, m(name, "ms", "lower"))
		}
	}
	return out
}

// metricValue is one reported number, in the driver's shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// withUnits attaches the declared unit to every value of specs. A spec
// without a value is an error: the driver refuses a partial key set.
func withUnits(specs []metricSpec, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		out[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return out, nil
}
