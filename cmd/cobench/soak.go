package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"complexobj"
	"complexobj/cobench"
	"complexobj/internal/metrics"
	"complexobj/internal/server"
)

// RunReport is the machine-readable summary -report writes: the same
// histogram figures the stderr line prints, plus the soak gate verdicts
// when -soak ran. Schema stability matters — CI's soak-smoke job and any
// dashboards consume this file.
type RunReport struct {
	Mode        string          `json:"mode"` // "closed", "open" or "soak"
	WallSeconds float64         `json:"wallSeconds"`
	Clients     int             `json:"clients,omitempty"`
	RateTarget  float64         `json:"rateTarget,omitempty"`
	Requests    int64           `json:"requests"`
	Throughput  float64         `json:"throughputRPS"`
	Retries     int64           `json:"retries"`
	Shed        int64           `json:"shed"`
	Latency     metrics.Summary `json:"latency"`
	// Commits and CommitLatency appear in write mode (-write-frac against
	// a coserve -wal): the acknowledged durable commits and their
	// server-side latency distribution.
	Commits       int64            `json:"commits,omitempty"`
	CommitLatency *metrics.Summary `json:"commitLatency,omitempty"`
	// WAL appears alongside Commits: the server's write-ahead-log append
	// volume over this run against the dirty-page payload the commits
	// actually carried — the write-amplification axis.
	WAL  *WALReport  `json:"wal,omitempty"`
	Soak *SoakReport `json:"soak,omitempty"`
}

// WALReport is the write-amplification block of a write-mode run: the
// delta of the server's durability counters between the start and end of
// the run. AppendedBytes / PayloadBytes is the amplification — framing,
// commit markers and full-page write granularity on top of the bytes the
// commits logically changed.
type WALReport struct {
	AppendedBytes      int64   `json:"appendedBytes"`
	PayloadBytes       int64   `json:"payloadBytes"`
	Syncs              int64   `json:"syncs"`
	WriteAmplification float64 `json:"writeAmplification,omitempty"`
}

// SoakStep is one rung of the soak ramp.
type SoakStep struct {
	RateRPS   float64         `json:"rateRPS"`
	Seconds   float64         `json:"seconds"`
	Requests  int64           `json:"requests"`
	Exhausted int64           `json:"shedExhausted"`
	Errors    int64           `json:"errors"`
	Latency   metrics.Summary `json:"latency"`
}

// SoakReport carries the soak gates: RSS growth against the bound,
// server- and client-side divergence, and hard errors. Passed is the
// conjunction — the process exit code mirrors it.
type SoakReport struct {
	Steps                []SoakStep `json:"steps"`
	StartRSSBytes        int64      `json:"startRssBytes"`
	PeakRSSBytes         int64      `json:"peakRssBytes"`
	RSSGrowthBytes       int64      `json:"rssGrowthBytes"`
	RSSBoundBytes        int64      `json:"rssBoundBytes"`
	RSSGateSkipped       bool       `json:"rssGateSkipped"` // server reported no RSS (non-Linux)
	ServerDivergentCells int64      `json:"serverDivergentCells"`
	ClientDivergentCells int64      `json:"clientDivergentCells"`
	HardErrors           int64      `json:"hardErrors"`
	ShedExhausted        int64      `json:"shedExhausted"`
	// Write-mode gate (only meaningful with -write-frac): commits the
	// server acknowledged to this client, the growth of the server's own
	// commit counter over the soak, and the difference — acknowledged
	// commits the server's counter does not account for. LostUpdates must
	// be zero for the soak to pass.
	AckedCommits  int64 `json:"ackedCommits,omitempty"`
	ServerCommits int64 `json:"serverCommits,omitempty"`
	LostUpdates   int64 `json:"lostUpdates,omitempty"`
	Passed        bool  `json:"passed"`
}

// writeReport writes rep as indented JSON (atomic enough for CI: a
// temp-file rename would be overkill for a single consumer).
func writeReport(path string, rep *RunReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// soakCell tracks client-side determinism of one (model, query) cell:
// the raw counters of the first successful response; every later
// response must match bit for bit.
type soakCell struct {
	mu        sync.Mutex
	seen      bool
	raw       complexobj.Stats
	divergent bool
}

func (c *soakCell) observe(raw complexobj.Stats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.seen {
		c.seen, c.raw = true, raw
		return
	}
	if raw != c.raw {
		c.divergent = true
	}
}

// runSoak drives a sustained open-loop load against the server as a
// stepped rate ramp (steps rungs climbing to peakRate req/s over total),
// then gates: zero hard errors, zero server-side divergent /stats cells,
// zero client-side counter divergence, and server RSS growth within
// rssBoundMB MiB of the first sample. Retry-exhausted sheds (every
// attempt 503'd) are counted, reported, and tolerated — an overdriven
// ramp shedding load is the resilience design working, not a failure.
// The report (when requested) is written before any gate error returns,
// so a failing soak still leaves its evidence behind.
func runSoak(baseURL string, models []complexobj.ModelKind, queries []cobench.Query,
	gen cobench.Config, w cobench.Workload, bufferPages int,
	total time.Duration, steps int, peakRate float64, rssBoundMB int,
	writeFrac float64, reportPath string) error {

	c := newServedClient(baseURL)
	if err := c.checkServer(gen, bufferPages); err != nil {
		return err
	}
	c.writeFrac = writeFrac
	var commitsBefore int64
	if writeFrac > 0 {
		n, durable, err := c.serverCommits()
		if err != nil {
			return err
		}
		if !durable {
			return fmt.Errorf("-write-frac needs a durable server (start coserve -wal)")
		}
		commitsBefore = n
	}
	if steps < 1 {
		steps = 1
	}
	if peakRate <= 0 {
		peakRate = 50
	}
	stepDur := total / time.Duration(steps)
	if stepDur <= 0 {
		return fmt.Errorf("-soak %v too short for %d steps", total, steps)
	}

	type cellID struct {
		mi, qi int
	}
	var ids []cellID
	for mi := range models {
		for qi := range queries {
			ids = append(ids, cellID{mi, qi})
		}
	}
	cells := make(map[cellID]*soakCell, len(ids))
	for _, id := range ids {
		cells[id] = &soakCell{}
	}

	var (
		wg         sync.WaitGroup
		hardErrs   atomic.Int64
		exhausted  atomic.Int64
		firstErrMu sync.Mutex
		firstErr   error
	)
	fire := func(id cellID, hist *metrics.Histogram, stepReqs, stepExh, stepErrs *atomic.Int64) {
		defer wg.Done()
		start := time.Now()
		res, exh, err := c.runOne(models[id.mi], queries[id.qi], w)
		if err != nil {
			if exh {
				exhausted.Add(1)
				stepExh.Add(1)
				return
			}
			hardErrs.Add(1)
			stepErrs.Add(1)
			firstErrMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			firstErrMu.Unlock()
			return
		}
		hist.Observe(time.Since(start))
		stepReqs.Add(1)
		cells[id].observe(res.Raw)
	}

	// RSS sampling: the server's own figures via /info, once a second in
	// the background. startRSS is the first non-zero sample; zero samples
	// throughout (non-Linux server) skip the RSS gate gracefully.
	var (
		rssMu             sync.Mutex
		startRSS, peakRSS int64
	)
	sampleRSS := func() {
		ps, err := c.procStats()
		if err != nil || ps.RSSBytes == 0 {
			return
		}
		rssMu.Lock()
		if startRSS == 0 {
			startRSS = ps.RSSBytes
		}
		if ps.RSSBytes > peakRSS {
			peakRSS = ps.RSSBytes
		}
		rssMu.Unlock()
	}
	sampleRSS()
	stopSampling := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stopSampling:
				return
			case <-tick.C:
				sampleRSS()
			}
		}
	}()

	// The ramp: step i fires at peak·(i+1)/steps req/s for stepDur,
	// round-robining the cells so every (model, query) pair keeps seeing
	// traffic at every rung.
	wallStart := time.Now()
	var stepReports []SoakStep
	next := 0
	for i := 0; i < steps; i++ {
		rate := peakRate * float64(i+1) / float64(steps)
		interval := time.Duration(float64(time.Second) / rate)
		if interval <= 0 {
			interval = time.Nanosecond
		}
		var (
			hist     = metrics.NewHistogram()
			stepReqs atomic.Int64
			stepExh  atomic.Int64
			stepErrs atomic.Int64
		)
		fmt.Fprintf(os.Stderr, "soak step %d/%d: %.1f req/s for %v\n", i+1, steps, rate, stepDur.Round(time.Millisecond))
		stepStart := time.Now()
		tick := time.NewTicker(interval)
		deadline := time.After(stepDur)
	step:
		for {
			select {
			case <-deadline:
				break step
			case <-tick.C:
				id := ids[next%len(ids)]
				next++
				wg.Add(1)
				go fire(id, hist, &stepReqs, &stepExh, &stepErrs)
			}
		}
		tick.Stop()
		stepReports = append(stepReports, SoakStep{
			RateRPS:   rate,
			Seconds:   time.Since(stepStart).Seconds(),
			Requests:  stepReqs.Load(),
			Exhausted: stepExh.Load(),
			Errors:    stepErrs.Load(),
			Latency:   metrics.Summarize(hist.Snapshot()),
		})
	}
	wg.Wait()
	close(stopSampling)
	samplerWG.Wait()
	sampleRSS()
	wall := time.Since(wallStart)

	// Server-side verdicts after the load has fully drained.
	divergent, statsErr := c.serverDivergentCells()
	if statsErr != nil {
		firstErrMu.Lock()
		if firstErr == nil {
			firstErr = statsErr
		}
		firstErrMu.Unlock()
		hardErrs.Add(1)
	}
	var clientDivergent int64
	for _, id := range ids {
		if cells[id].divergent {
			clientDivergent++
		}
	}

	rssMu.Lock()
	start, peak := startRSS, peakRSS
	rssMu.Unlock()
	bound := int64(rssBoundMB) * 1 << 20
	growth := peak - start
	rssSkipped := start == 0
	rssOK := rssSkipped || growth <= bound

	// Write-mode gate: every commit acknowledged to this client must show
	// up in the server's own counter (the reverse — a retried request
	// committing twice after a lost acknowledgment — is fine).
	var acked, serverDelta, lost int64
	if writeFrac > 0 {
		acked = c.acked.Load()
		after, durable, err := c.serverCommits()
		if err != nil {
			firstErrMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			firstErrMu.Unlock()
			hardErrs.Add(1)
		} else if durable {
			serverDelta = after - commitsBefore
			if lost = acked - serverDelta; lost < 0 {
				lost = 0
			}
		}
	}

	soak := &SoakReport{
		Steps:                stepReports,
		StartRSSBytes:        start,
		PeakRSSBytes:         peak,
		RSSGrowthBytes:       growth,
		RSSBoundBytes:        bound,
		RSSGateSkipped:       rssSkipped,
		ServerDivergentCells: divergent,
		ClientDivergentCells: clientDivergent,
		HardErrors:           hardErrs.Load(),
		ShedExhausted:        exhausted.Load(),
		AckedCommits:         acked,
		ServerCommits:        serverDelta,
		LostUpdates:          lost,
		Passed:               hardErrs.Load() == 0 && divergent == 0 && clientDivergent == 0 && rssOK && lost == 0,
	}
	snap := c.hist.Snapshot()
	rep := &RunReport{
		Mode:        "soak",
		WallSeconds: wall.Seconds(),
		RateTarget:  peakRate,
		Requests:    snap.Count,
		Throughput:  float64(snap.Count) / wall.Seconds(),
		Retries:     c.retries.Load(),
		Shed:        c.shed.Load(),
		Latency:     metrics.Summarize(snap),
		Soak:        soak,
	}
	if reportPath != "" {
		if err := writeReport(reportPath, rep); err != nil {
			return err
		}
	}

	fmt.Fprintf(os.Stderr,
		"soak: %d requests over %v (peak %.1f req/s, %d steps), p50 %s / p99 %s / p99.9 %s, retries %d, shed %d, exhausted %d\n",
		snap.Count, wall.Round(time.Millisecond), peakRate, steps,
		micros(float64(rep.Latency.P50Micros)), micros(float64(rep.Latency.P99Micros)),
		micros(float64(rep.Latency.P999Micros)), rep.Retries, rep.Shed, soak.ShedExhausted)
	if rssSkipped {
		fmt.Fprintln(os.Stderr, "soak: RSS gate skipped (server reported no RSS figure)")
	} else {
		fmt.Fprintf(os.Stderr, "soak: server RSS %d -> %d bytes (growth %d, bound %d)\n", start, peak, growth, bound)
	}
	if writeFrac > 0 {
		cl := metrics.Summarize(c.commitHist.Snapshot())
		fmt.Fprintf(os.Stderr, "soak: %d durable commits acknowledged (server delta %d, lost %d), commit latency p50 %s / p99 %s / max %s\n",
			acked, serverDelta, lost,
			micros(float64(cl.P50Micros)), micros(float64(cl.P99Micros)), micros(float64(cl.MaxMicros)))
	}

	switch {
	case hardErrs.Load() > 0:
		return fmt.Errorf("soak: %d hard errors (first: %v)", hardErrs.Load(), firstErr)
	case divergent > 0:
		return fmt.Errorf("soak: server reports %d divergent /stats cells", divergent)
	case clientDivergent > 0:
		return fmt.Errorf("soak: %d cells returned non-identical counters across requests", clientDivergent)
	case !rssOK:
		return fmt.Errorf("soak: server RSS grew %d bytes, bound %d (start %d, peak %d)", growth, bound, start, peak)
	case lost > 0:
		return fmt.Errorf("soak: %d lost updates (%d commits acknowledged, server counter grew %d)", lost, acked, serverDelta)
	}
	fmt.Fprintln(os.Stderr, "soak: all gates passed")
	return nil
}

// procStats fetches the server's process figures from /info.
func (c *servedClient) procStats() (metrics.ProcStats, error) {
	var info server.InfoResponse
	if err := c.getJSON("/info", &info); err != nil {
		return metrics.ProcStats{}, err
	}
	return info.Metrics.Process, nil
}

// serverDivergentCells counts /stats cells flagged divergent.
func (c *servedClient) serverDivergentCells() (int64, error) {
	var stats server.StatsResponse
	if err := c.getJSON("/stats", &stats); err != nil {
		return 0, err
	}
	var n int64
	for _, cell := range stats.Cells {
		if cell.Divergent {
			n++
		}
	}
	return n, nil
}

// getJSON fetches one endpoint into out.
func (c *servedClient) getJSON(path string, out any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return fmt.Errorf("%s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
