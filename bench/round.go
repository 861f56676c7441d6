package main

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// roundStats is what one round of a workload measured. A round is a fixed
// number of ops, never a fixed duration, so every round of a workload
// does the same work and rounds compare directly. WallS, CPUS, OpsPerS
// and P50MS are raw; Host is the reference-clock factor of the bursts
// before and after the round (reference.go), and RefOpsPerS the
// throughput on that clock.
type roundStats struct {
	Ops        int     `json:"ops"`
	Failed     int     `json:"failed"`
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	OpsPerS    float64 `json:"ops_per_s_raw"`
	P50MS      float64 `json:"lat_p50_ms_raw"`
	Host       float64 `json:"host_speed"`
	RefOpsPerS float64 `json:"ops_per_s"`
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runRound drives ops first..first+n-1 through do with a closed loop of
// `clients` callers: each takes the next op index off a shared counter
// and waits for it to finish before taking another. do reports whether
// the op's output was acceptable. lat receives the per-op latencies in
// ns (len >= n); it is caller-owned scratch, so the loop allocates nothing
// of its own.
//
// The CPU time is that of the whole process — load generator included,
// since it lives in the same process as the server.
func runRound(first, n, clients int, lat []int64, do func(client, op int) bool) roundStats {
	var next, failed atomic.Int64
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t0 := time.Now()
				ok := do(c, first+i)
				lat[i] = int64(time.Since(t0))
				if !ok {
					failed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	return roundStats{
		Ops:        n,
		Failed:     int(failed.Load()),
		WallS:      wall.Seconds(),
		CPUS:       cpu.Seconds(),
		Host:       1,
		OpsPerS:    float64(n) / wall.Seconds(),
		RefOpsPerS: float64(n) / wall.Seconds(),
	}
}

// roundFunc runs ops first..first+n-1 of a workload as one round, writing
// the per-op latencies into lat.
type roundFunc func(first, n int, lat []int64) roundStats

// measured is what a workload's measured (untraced) phase produced.
type measured struct {
	setupS    []float64 // per set-up, on the reference clock
	setupRaw  []float64 // per set-up, wall clock
	warmup    roundStats
	rounds    []roundStats
	latencies []int64 // every measured op's wall latency in ns, round after round
	allocKB   float64 // heap bytes allocated during the measured rounds / 1024
	mallocs   float64 // heap objects allocated during the measured rounds
	attempted int
	failed    int
	referee   []string // one line per referee check, "ok: …" or "FAIL: …"
	opsHash   string
	rssReset  bool // peak RSS covers the rounds only, not the set-ups
}

// quietBurst takes one reference burst from a quiet workload process. A
// collection still marking when a round ends would use the idle
// processors beside the reference loop and lower its factor, the more
// so the more the code under test allocates; runtime.GC returns only
// when no collection is running.
func quietBurst(ref reference) (float64, error) {
	runtime.GC()
	return ref.burst()
}

// timedSetup runs one cold set-up between two reference bursts and
// records its duration on both clocks. Each set-up thereby starts from
// a collected heap, so the garbage of the one before neither slows it
// nor piles onto the peak RSS.
func (m *measured) timedSetup(ref reference, setup func() error) error {
	before, err := quietBurst(ref)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := setup(); err != nil {
		return err
	}
	raw := time.Since(t0).Seconds()
	after, err := quietBurst(ref)
	if err != nil {
		return err
	}
	m.setupRaw = append(m.setupRaw, raw)
	m.setupS = append(m.setupS, raw*(before+after)/2)
	return nil
}

// timedRounds runs the discarded warm-up round and then measured rounds
// until they total at least `seconds` of wall time (two at the least),
// with a reference burst before the first, between any two and after the
// last. Each round's factor is the mean of its two neighbouring bursts.
func (m *measured) timedRounds(n int, seconds float64, ref reference, round roundFunc) error {
	lat := make([]int64, n)
	m.rssReset = resetPeakRSS()
	m.warmup = round(0, n, lat)
	m.attempted, m.failed = m.warmup.Ops, m.failed+m.warmup.Failed
	next := n

	var ms0, ms1 runtime.MemStats
	before, err := quietBurst(ref)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms0)
	var total float64
	for len(m.rounds) < 2 || total < seconds {
		r := round(next, n, lat)
		next += n
		runtime.ReadMemStats(&ms1)
		after, err := quietBurst(ref)
		if err != nil {
			return err
		}
		r.Host = (before + after) / 2
		r.RefOpsPerS = r.OpsPerS / r.Host
		before = after
		m.latencies = append(m.latencies, lat[:n]...)
		sort.Slice(lat[:n], func(i, j int) bool { return lat[i] < lat[j] })
		r.P50MS = float64(percentileSorted(lat[:n], 50)) / 1e6
		total += r.WallS
		m.rounds = append(m.rounds, r)
		m.attempted += r.Ops
		m.failed += r.Failed
	}
	// The allocation counts run from before the first round to after the
	// last: what the rounds allocated, plus this loop's own bookkeeping
	// (eight bytes an op for the latencies).
	m.allocKB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024
	m.mallocs = float64(ms1.Mallocs - ms0.Mallocs)
	return nil
}

// gated condenses the measured phase into the gated metrics (peak RSS is
// read by the caller, at the end of the run). setup_s is the fastest
// set-up on the reference clock: a set-up is a quarter of a second of
// file writes, and what disturbs it only ever adds time.
func (m *measured) gated() map[string]float64 {
	ops := 0
	for _, r := range m.rounds {
		ops += r.Ops
	}
	return map[string]float64{
		"setup_s":         slices.Min(m.setupS),
		"alloc_kb_per_op": m.allocKB / float64(ops),
		"mallocs_per_op":  m.mallocs / float64(ops),
	}
}

// timings condenses the measured rounds into the ungated timings. On the
// wall clock a timing is a total over the rounds as the clock read it; on
// the reference clock every round's times are first multiplied by the
// round's host factor. Latency percentiles are taken over every measured
// op of the run; one the run has too few samples to carry is left out,
// and so are all of them when `latency` is false.
func (m *measured) timings(latency bool) map[string]timingValue {
	var ops, wall, cpu, refWall, refCPU float64
	for _, r := range m.rounds {
		ops += float64(r.Ops)
		wall += r.WallS
		cpu += r.CPUS
		refWall += r.WallS * r.Host
		refCPU += r.CPUS * r.Host
	}
	out := map[string]timingValue{
		"ops_per_s":     {Ref: ops / refWall, Wall: ops / wall},
		"cpu_ms_per_op": {Ref: refCPU * 1e3 / ops, Wall: cpu * 1e3 / ops},
	}
	if !latency {
		return out
	}
	wallLat := slices.Clone(m.latencies)
	refLat := make([]int64, 0, len(wallLat))
	for i, r := range m.rounds {
		for _, l := range wallLat[i*r.Ops : (i+1)*r.Ops] {
			refLat = append(refLat, int64(float64(l)*r.Host))
		}
	}
	slices.Sort(wallLat)
	slices.Sort(refLat)
	for _, t := range timings {
		if t.Pct > 0 && carries(len(wallLat), t.Pct) {
			out[t.Name] = timingValue{
				Ref:  float64(percentileSorted(refLat, t.Pct)) / 1e6,
				Wall: float64(percentileSorted(wallLat, t.Pct)) / 1e6,
			}
		}
	}
	return out
}
