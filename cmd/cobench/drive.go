package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"complexobj"
	"complexobj/cobench"
	"complexobj/internal/fanout"
	"complexobj/internal/metrics"
	"complexobj/internal/server"
)

// RunReport is the machine-readable summary -report writes: the same
// histogram figures the stderr line prints, the write-mode blocks with
// -write-frac, and the soak gate verdicts when -soak ran. Schema stability
// matters — CI's soak-smoke and crash-recovery jobs and any dashboards
// consume this file.
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

// SoakStep is one rung of the soak ramp. Its requests are the answered
// requests it fired, so the steps' requests sum to the run's.
type SoakStep struct {
	RateRPS   float64         `json:"rateRPS"`
	Seconds   float64         `json:"seconds"`
	Requests  int64           `json:"requests"`
	Exhausted int64           `json:"shedExhausted"`
	Errors    int64           `json:"errors"`
	Latency   metrics.Summary `json:"latency"`
}

// SoakReport carries the soak gates: RSS growth against the bound,
// server- and client-side divergence, hard errors and lost updates.
// Passed is the conjunction — the process exit code mirrors it.
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
	// commits the server's counter does not account for.
	AckedCommits  int64 `json:"ackedCommits,omitempty"`
	ServerCommits int64 `json:"serverCommits,omitempty"`
	LostUpdates   int64 `json:"lostUpdates,omitempty"`
	Passed        bool  `json:"passed"`
}

// divergenceError names the cells ("dsm 2b") that answered with different
// raw counters across requests: a breach of the determinism contract seen
// from the client side.
type divergenceError []string

func (e divergenceError) Error() string {
	return fmt.Sprintf("%d cells returned non-identical counters across requests: %s", len(e), strings.Join(e, ", "))
}

// servedClient is the one served-load driver: the HTTP client of one
// coserve (or coshard) and the accumulator every mode records into.
type servedClient struct {
	base    string
	hc      *http.Client
	models  []complexobj.ModelKind
	queries []cobench.Query
	w       cobench.Workload

	// Write mode (-write-frac against a coserve -wal): writeFrac of the
	// update-query requests commit durably, on commitsAt's schedule over
	// the request counter wcount (deterministic, so repeats issue the
	// same write mix).
	writeFrac float64
	wcount    atomic.Int64

	// The accumulator. retries counts re-attempts after a transient
	// failure, shed the 503s among them. run counts the whole run; a
	// soak step also counts into its own tally. commitHist holds the
	// server-side latency of every commit the server acknowledged. cells
	// holds each (model, query) cell's first answer.
	retries, shed atomic.Int64
	run           tally
	commitHist    *metrics.Histogram
	wg            sync.WaitGroup // open-loop requests in flight
	mu            sync.Mutex     // guards cells and firstErr
	cells         []firstAnswer
	firstErr      error
}

// tally counts one span of load, the run or one soak step: one latency
// observation per answered request (the successful attempt's issue →
// decoded response) and the requests that failed hard or stayed shed.
type tally struct {
	hist              *metrics.Histogram
	errors, exhausted atomic.Int64
}

// firstAnswer is one cell's first answer; a later answer with other raw
// counters marks the cell divergent.
type firstAnswer struct {
	res             complexobj.QueryResult
	seen, divergent bool
}

// answer is one answered request: the counters the local path would have
// produced, the successful attempt's latency and the server's commit
// acknowledgment.
type answer struct {
	complexobj.QueryResult
	latency, commitLatency time.Duration
	committed              bool
}

// drive runs the served load the options ask for — a closed-loop table
// run, an open-loop table run at -rate, or a -soak ramp — and returns the
// table rows (nil after a soak). The run is bracketed by two /info reads;
// the report is written before the verdict returns, so a failing run
// leaves its evidence.
func drive(o *options, gen cobench.Config, w cobench.Workload, models []complexobj.ModelKind,
	queries []cobench.Query, get func(complexobj.QueryResult) float64, stderr io.Writer) ([][]string, error) {

	// Pool generously: the default transport keeps only two idle
	// connections per host, so a -clients 32 drive would churn TCP
	// connections on every wave of completions.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns, tr.MaxIdleConnsPerHost = 256, 256
	c := &servedClient{
		base:       strings.TrimRight(o.serveURL, "/"),
		hc:         &http.Client{Timeout: 10 * time.Minute, Transport: tr},
		models:     models,
		queries:    queries,
		w:          w,
		writeFrac:  o.writeFrac,
		run:        tally{hist: metrics.NewHistogram()},
		commitHist: metrics.NewHistogram(),
		cells:      make([]firstAnswer, len(models)*len(queries)),
	}
	before, err := c.checkServer(gen, o.buffer)
	if err != nil {
		return nil, err
	}
	if o.writeFrac > 0 && before == nil {
		return nil, errors.New("-write-frac needs a durable server (start coserve -wal)")
	}
	tasks := len(models) * len(queries) * o.repeat
	rep := &RunReport{Mode: "closed", Clients: min(max(o.clients, 1), tasks)}
	mode := fmt.Sprintf("closed loop, %d clients", rep.Clients)
	start := time.Now()
	switch {
	case o.soak > 0:
		rep.Mode, rep.Clients, rep.RateTarget = "soak", 0, o.rate
		if o.rate <= 0 {
			rep.RateTarget = 50
		}
		if rep.Soak, err = c.ramp(o, rep.RateTarget, stderr); err != nil {
			return nil, err
		}
		mode = fmt.Sprintf("soak, %d steps to %.1f req/s", len(rep.Soak.Steps), rep.RateTarget)
	case o.rate > 0:
		rep.Mode, rep.Clients, rep.RateTarget = "open", 0, o.rate
		mode = fmt.Sprintf("open loop, %.1f req/s", o.rate)
		c.fire(o.rate, 0, tasks, nil, nil)
		c.wg.Wait()
	default:
		// One task per (model, query, repeat) cell, so the requested client
		// count is actually in flight even when few models are selected;
		// the first failure stops the dispatch (the accumulator has it).
		_ = fanout.Run(tasks, rep.Clients, func(i int) error { return c.do(i, nil) })
	}
	wall := time.Since(start)
	snap := c.run.hist.Snapshot()
	rep.WallSeconds = wall.Seconds()
	rep.Requests = snap.Count
	rep.Throughput = float64(snap.Count) / wall.Seconds()
	rep.Retries, rep.Shed = c.retries.Load(), c.shed.Load()
	rep.Latency = metrics.Summarize(snap)
	var acked, delta, lost int64
	if o.writeFrac > 0 {
		cl := metrics.Summarize(c.commitHist.Snapshot())
		acked, rep.Commits, rep.CommitLatency = cl.Count, cl.Count, &cl
		// The bracket's after half, once the load has drained. A retried
		// request may commit twice after a lost acknowledgment, so the
		// server delta may exceed acked — only the other direction loses
		// updates.
		if info, err := c.info(); err != nil {
			c.fail(err)
		} else if after := info.Durability; after != nil {
			delta = after.Commits - before.Commits
			lost = max(acked-delta, 0)
			rep.WAL = &WALReport{
				AppendedBytes: after.AppendedBytes - before.AppendedBytes,
				PayloadBytes:  after.PayloadBytes - before.PayloadBytes,
				Syncs:         after.Syncs - before.Syncs,
			}
			if rep.WAL.PayloadBytes > 0 {
				rep.WAL.WriteAmplification = float64(rep.WAL.AppendedBytes) / float64(rep.WAL.PayloadBytes)
			}
		}
	}
	var divergent divergenceError
	for i, a := range c.cells {
		if a.divergent {
			divergent = append(divergent, fmt.Sprintf("%s %s", models[i/len(queries)], queries[i%len(queries)]))
		}
	}

	var serverDivergent int64
	soak := rep.Soak
	if soak != nil {
		var stats server.StatsResponse
		if err := c.getJSON("/stats", &stats); err != nil {
			c.fail(err)
		}
		for _, cell := range stats.Cells {
			if cell.Divergent {
				serverDivergent++
			}
		}
	}
	var verdict error
	hard := c.run.errors.Load()
	switch {
	case hard > 0:
		verdict = fmt.Errorf("%d hard errors (first: %w)", hard, c.firstErr)
	case serverDivergent > 0:
		verdict = fmt.Errorf("server reports %d divergent /stats cells", serverDivergent)
	case divergent != nil:
		verdict = divergent
	case soak != nil && !soak.RSSGateSkipped && soak.RSSGrowthBytes > soak.RSSBoundBytes:
		verdict = fmt.Errorf("server RSS grew %d bytes, bound %d (start %d, peak %d)",
			soak.RSSGrowthBytes, soak.RSSBoundBytes, soak.StartRSSBytes, soak.PeakRSSBytes)
	case lost > 0:
		verdict = fmt.Errorf("lost updates: %d acknowledged commits are missing from the server's counter (%d acked, server delta %d)",
			lost, acked, delta)
	}
	if soak != nil {
		soak.ServerDivergentCells, soak.ClientDivergentCells = serverDivergent, int64(len(divergent))
		soak.HardErrors, soak.ShedExhausted = hard, c.run.exhausted.Load()
		soak.AckedCommits, soak.ServerCommits, soak.LostUpdates = acked, delta, lost
		soak.Passed = verdict == nil
		if verdict != nil {
			verdict = fmt.Errorf("soak: %w", verdict)
		}
	}

	if o.reportPath != "" {
		if err := writeReport(o.reportPath, rep); err != nil {
			return nil, err
		}
	}
	s := rep.Latency
	fmt.Fprintf(stderr, "served %d requests in %v (%s): %.1f req/s, latency min %s / mean %s / p50 %s / p90 %s / p99 %s / p99.9 %s / max %s, retries %d, shed %d, exhausted %d\n",
		snap.Count, wall.Round(time.Millisecond), mode, rep.Throughput,
		micros(float64(s.MinMicros)), micros(s.MeanMicros),
		micros(float64(s.P50Micros)), micros(float64(s.P90Micros)),
		micros(float64(s.P99Micros)), micros(float64(s.P999Micros)),
		micros(float64(s.MaxMicros)), rep.Retries, rep.Shed, c.run.exhausted.Load())
	if cl := rep.CommitLatency; cl != nil {
		fmt.Fprintf(stderr, "commits: %d acknowledged, server delta %d, lost %d, commit latency p50 %s / p99 %s / max %s\n",
			acked, delta, lost, micros(float64(cl.P50Micros)), micros(float64(cl.P99Micros)), micros(float64(cl.MaxMicros)))
	}
	if d := rep.WAL; d != nil && d.PayloadBytes > 0 {
		fmt.Fprintf(stderr, "wal: %d B appended for %d B of page payload (%.2fx write amplification, %d syncs)\n",
			d.AppendedBytes, d.PayloadBytes, d.WriteAmplification, d.Syncs)
	}
	if soak != nil {
		if soak.RSSGateSkipped {
			fmt.Fprintln(stderr, "soak: RSS gate skipped (server reported no RSS figure)")
		} else {
			fmt.Fprintf(stderr, "soak: server RSS %d -> %d bytes (growth %d, bound %d)\n",
				soak.StartRSSBytes, soak.PeakRSSBytes, soak.RSSGrowthBytes, soak.RSSBoundBytes)
		}
		if soak.Passed {
			fmt.Fprintln(stderr, "soak: all gates passed")
		}
	}
	if verdict != nil || soak != nil {
		return nil, verdict
	}
	rows := make([][]string, len(models))
	for mi, k := range models {
		rows[mi] = []string{k.String()}
		for qi := range queries {
			rows[mi] = append(rows[mi], cellText(c.cells[mi*len(queries)+qi].res, get))
		}
	}
	return rows, nil
}

// ramp runs the soak: open-loop steps climbing linearly to peak req/s,
// each for -soak/-soak-steps, round-robining the cells so every (model,
// query) pair sees traffic at every rung, while the server's RSS is
// sampled once a second through /info. It returns the soak block with the
// steps and the RSS figures; drive adds the verdicts.
func (c *servedClient) ramp(o *options, peak float64, stderr io.Writer) (*SoakReport, error) {
	steps := max(o.soakSteps, 1)
	stepDur := o.soak / time.Duration(steps)
	if stepDur <= 0 {
		return nil, fmt.Errorf("-soak %v too short for %d steps", o.soak, steps)
	}

	// RSS sampling: the server's own figures via /info, once a second in
	// the background (and once before and after it, so no lock: the
	// sampler is the only writer while it runs). startRSS is the first
	// non-zero sample; zero samples throughout (non-Linux server) skip the
	// RSS gate gracefully.
	var startRSS, peakRSS int64
	sampleRSS := func() {
		if info, err := c.info(); err == nil && info.Metrics.Process.RSSBytes > 0 {
			if startRSS == 0 {
				startRSS = info.Metrics.Process.RSSBytes
			}
			peakRSS = max(peakRSS, info.Metrics.Process.RSSBytes)
		}
	}
	sampleRSS()
	stopSampling, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
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

	soak := &SoakReport{Steps: make([]SoakStep, steps), RSSBoundBytes: int64(o.soakRSSMB) << 20}
	tallies := make([]tally, steps)
	next := 0
	for i := range tallies {
		st := &soak.Steps[i]
		st.RateRPS = peak * float64(i+1) / float64(steps)
		fmt.Fprintf(stderr, "soak step %d/%d: %.1f req/s for %v\n", i+1, steps, st.RateRPS, stepDur.Round(time.Millisecond))
		tallies[i].hist = metrics.NewHistogram()
		stepStart := time.Now()
		next = c.fire(st.RateRPS, next, math.MaxInt, time.After(stepDur), &tallies[i])
		st.Seconds = time.Since(stepStart).Seconds()
	}
	c.wg.Wait() // a step's late answers still count toward it
	close(stopSampling)
	<-sampled
	sampleRSS()

	for i := range tallies {
		st, t := &soak.Steps[i], &tallies[i]
		snap := t.hist.Snapshot()
		st.Requests, st.Latency = snap.Count, metrics.Summarize(snap)
		st.Exhausted, st.Errors = t.exhausted.Load(), t.errors.Load()
	}
	soak.StartRSSBytes, soak.PeakRSSBytes = startRSS, peakRSS
	soak.RSSGrowthBytes, soak.RSSGateSkipped = peakRSS-startRSS, startRSS == 0
	return soak, nil
}

// fire is the open loop: from task next on, one task per tick at rate
// req/s, each in its own goroutine — the in-flight count is unbounded, as
// an open loop's must be — until task end or until stop fires. It returns
// the next task; c.wg waits for the ones launched.
func (c *servedClient) fire(rate float64, next, end int, stop <-chan time.Time, step *tally) int {
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 { // a rate above 1e9 (or +Inf) truncates to 0, which NewTicker rejects
		interval = time.Nanosecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for ; next < end; next++ {
		select {
		case <-stop:
			return next
		case <-tick.C:
		}
		c.wg.Add(1)
		go func(i int) {
			defer c.wg.Done()
			c.do(i, step)
		}(next)
	}
	return next
}

// do runs task i and records its outcome. Models cycle fastest, so
// concurrent requests spread across models (and, behind a router, shards).
// step is the soak step's tally; nil in a table run, which needs every
// cell answered, so there a shed that outlasts the retries is a hard error.
func (c *servedClient) do(i int, step *tally) error {
	mi, qi := i%len(c.models), i/len(c.models)%len(c.queries)
	a, exhausted, err := c.runOne(c.models[mi], c.queries[qi])
	if err != nil {
		if exhausted && step != nil {
			c.run.exhausted.Add(1)
			step.exhausted.Add(1)
		} else {
			c.fail(err)
			if step != nil {
				step.errors.Add(1)
			}
		}
		return err
	}
	c.run.hist.Observe(a.latency)
	if step != nil {
		step.hist.Observe(a.latency)
	}
	if a.committed {
		c.commitHist.Observe(a.commitLatency)
	}
	c.mu.Lock()
	if first := &c.cells[mi*len(c.queries)+qi]; !first.seen {
		first.res, first.seen = a.QueryResult, true
	} else if a.Raw != first.res.Raw {
		first.divergent = true
	}
	c.mu.Unlock()
	return nil
}

// fail counts a hard error against the run and keeps the first one.
func (c *servedClient) fail(err error) {
	c.run.errors.Add(1)
	c.mu.Lock()
	if c.firstErr == nil {
		c.firstErr = err
	}
	c.mu.Unlock()
}

// commitsAt is the write schedule: update request n (counted from 0)
// commits iff the running quota ⌊(n+1)·frac⌋ moved past ⌊n·frac⌋, so
// any N consecutive requests carry ⌊N·frac⌋ or ⌈N·frac⌉ commits —
// exactly frac of them in the long run, for every frac in [0, 1].
func commitsAt(n int64, frac float64) bool {
	return math.Floor(float64(n+1)*frac) > math.Floor(float64(n)*frac)
}

// decideCommit picks whether this request commits: only update queries,
// writeFrac of them (see commitsAt). The decision is made once per
// logical request (not per retry attempt), so a retried request keeps
// its write intent.
func (c *servedClient) decideCommit(q cobench.Query) bool {
	if c.writeFrac <= 0 || !q.Updates() {
		return false
	}
	return commitsAt(c.wcount.Add(1)-1, c.writeFrac)
}

// runOne executes one (model, query) cell on the server with bounded
// retry-with-backoff — transport errors and 503 sheds are transient by
// contract (the server's counters are deterministic, so a retried cell
// measures identically). On failure, exhausted reports whether every
// attempt failed retryably (the server shedding load the whole time, a
// capacity signal a soak counts separately from hard errors).
func (c *servedClient) runOne(k complexobj.ModelKind, q cobench.Query) (_ answer, exhausted bool, _ error) {
	const maxAttempts = 5
	backoff := 50 * time.Millisecond
	commit := c.decideCommit(q)
	for attempt := 1; ; attempt++ {
		a, retryable, err := c.tryOne(k, q, commit)
		if err == nil {
			return a, false, nil
		}
		if !retryable || attempt == maxAttempts {
			return answer{}, retryable, err
		}
		c.retries.Add(1)
		time.Sleep(backoff)
		backoff *= 2
	}
}

// tryOne is one attempt of runOne. retryable marks failures worth another
// attempt: connection errors and 503 (the server shedding load, which
// also counts toward the shed column).
func (c *servedClient) tryOne(k complexobj.ModelKind, q cobench.Query, commit bool) (_ answer, retryable bool, _ error) {
	spec := server.RunSpecFor(k, q, c.w)
	if commit {
		spec.Commit = "1"
	}
	start := time.Now()
	resp, err := c.hc.Get(c.base + "/run?" + spec.Values().Encode())
	if err != nil {
		return answer{}, true, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		retryable := resp.StatusCode == http.StatusServiceUnavailable
		if retryable {
			c.shed.Add(1)
		}
		return answer{}, retryable, fmt.Errorf("%s %s: %s: %s", k, q, resp.Status, body)
	}
	var rr server.RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return answer{}, false, fmt.Errorf("%s %s: %w", k, q, err)
	}
	return answer{
		QueryResult: complexobj.QueryResult{
			Query:     q,
			Model:     k,
			Supported: rr.Supported,
			Units:     rr.Units,
			Raw:       rr.Raw,
			PerUnit:   rr.PerUnit,
		},
		latency:       time.Since(start),
		committed:     rr.Committed,
		commitLatency: time.Duration(rr.CommitUS) * time.Microsecond,
	}, false, nil
}

// checkServer verifies the server serves the installation the flags
// request — the same extension and the same buffer-pool size — so a
// served table is comparable to the local run cell for cell (hit and fix
// counters depend on the cache capacity as much as on the data). It
// returns the server's durability block (nil without -wal): the before
// half of the run's bracket.
func (c *servedClient) checkServer(gen cobench.Config, bufferPages int) (*server.DurabilityInfo, error) {
	info, err := c.info()
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if info.Gen != gen {
		return nil, fmt.Errorf("server holds %+v, flags request %+v", info.Gen, gen)
	}
	if info.BufferPages != bufferPages {
		return nil, fmt.Errorf("server measures with %d buffer pages, flags request %d (start coserve with -buffer %d or pass -buffer %d)",
			info.BufferPages, bufferPages, bufferPages, info.BufferPages)
	}
	return info.Durability, nil
}

// info fetches the server's /info.
func (c *servedClient) info() (*server.InfoResponse, error) {
	info := new(server.InfoResponse)
	return info, c.getJSON("/info", info)
}

// getJSON fetches one endpoint into out.
func (c *servedClient) getJSON(path string, out any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
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

// micros renders a microsecond figure as a duration string (the stderr
// line's human units).
func micros(us float64) string {
	return time.Duration(us * float64(time.Microsecond)).Round(time.Microsecond).String()
}
