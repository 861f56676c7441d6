package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"complexobj"
	"complexobj/cobench"
	"complexobj/internal/fanout"
	"complexobj/internal/metrics"
	"complexobj/internal/server"
	"complexobj/report"
)

// servedClient drives one coserve instance.
type servedClient struct {
	base string
	hc   *http.Client

	// retries counts request re-attempts after a transient failure (a
	// transport error or a 503 shed); shed counts the 503 responses the
	// server degraded with. Both go to the stderr report only — stdout
	// stays byte-comparable to the local table.
	retries atomic.Int64
	shed    atomic.Int64

	// hist accumulates per-request end-to-end latency (issue → decoded
	// response) — the same histogram code the server's /metrics runs on,
	// so client- and server-side percentiles are comparable bucket for
	// bucket.
	hist *metrics.Histogram

	// Write mode (-write-frac against a coserve -wal): writeFrac of the
	// update-query requests commit durably, on commitsAt's schedule over
	// the request counter wcount (deterministic, so repeats issue the
	// same write mix); acked counts the commits the server acknowledged,
	// commitHist their server-side latency (the commitMicros field of the
	// response). The lost-update gate compares acked against the server's
	// own commit counter.
	writeFrac  float64
	wcount     atomic.Int64
	acked      atomic.Int64
	commitHist *metrics.Histogram

	// walBefore/walAfter are the server's durability counters sampled
	// around a write-mode run; report() turns the delta into the
	// write-amplification block of the RunReport.
	walBefore, walAfter *server.DurabilityInfo
}

func newServedClient(baseURL string) *servedClient {
	// Pool generously: the default transport keeps only two idle
	// connections per host, so a -clients 32 drive would churn TCP
	// connections on every wave of completions.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 256
	tr.MaxIdleConnsPerHost = 256
	return &servedClient{
		base:       trimSlash(baseURL),
		hc:         &http.Client{Timeout: 10 * time.Minute, Transport: tr},
		hist:       metrics.NewHistogram(),
		commitHist: metrics.NewHistogram(),
	}
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

// checkServer verifies the server serves the installation the flags
// request — the same extension and the same buffer-pool size — so a
// served table is comparable to the local run cell for cell (hit and fix
// counters depend on the cache capacity as much as on the data).
func (c *servedClient) checkServer(gen cobench.Config, bufferPages int) error {
	resp, err := c.hc.Get(c.base + "/info")
	if err != nil {
		return fmt.Errorf("server unreachable: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server /info: %s", resp.Status)
	}
	var info server.InfoResponse
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return fmt.Errorf("server /info: %w", err)
	}
	if info.Gen != gen {
		return fmt.Errorf("server holds %+v, flags request %+v", info.Gen, gen)
	}
	if info.BufferPages != bufferPages {
		return fmt.Errorf("server measures with %d buffer pages, flags request %d (start coserve with -buffer %d or pass -buffer %d)",
			info.BufferPages, bufferPages, bufferPages, info.BufferPages)
	}
	return nil
}

// runOne executes one (model, query) cell on the server with bounded
// retry-with-backoff — transport errors and 503 sheds are transient by
// contract (the server's counters are deterministic, so a retried cell
// measures identically) — and reconstructs the QueryResult the local
// path would have produced. On failure, exhausted reports whether every
// attempt failed retryably (the server shedding load the whole time, a
// capacity signal the soak gate counts separately from hard errors).
func (c *servedClient) runOne(k complexobj.ModelKind, q cobench.Query, w cobench.Workload) (_ complexobj.QueryResult, exhausted bool, _ error) {
	const maxAttempts = 5
	backoff := 50 * time.Millisecond
	commit := c.decideCommit(q)
	for attempt := 1; ; attempt++ {
		res, retryable, err := c.tryOne(k, q, w, commit)
		if err == nil {
			return res, false, nil
		}
		if !retryable || attempt == maxAttempts {
			return complexobj.QueryResult{}, retryable, err
		}
		c.retries.Add(1)
		time.Sleep(backoff)
		backoff *= 2
	}
}

// tryOne is one attempt of runOne. retryable marks failures worth another
// attempt: connection errors and 503 (the server shedding load, which
// also counts toward the shed column).
func (c *servedClient) tryOne(k complexobj.ModelKind, q cobench.Query, w cobench.Workload, commit bool) (_ complexobj.QueryResult, retryable bool, _ error) {
	spec := server.RunSpecFor(k, q, w)
	if commit {
		spec.Commit = "1"
	}
	params := spec.Values()
	start := time.Now()
	resp, err := c.hc.Get(c.base + "/run?" + params.Encode())
	if err != nil {
		return complexobj.QueryResult{}, true, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		retryable := resp.StatusCode == http.StatusServiceUnavailable
		if retryable {
			c.shed.Add(1)
		}
		return complexobj.QueryResult{}, retryable, fmt.Errorf("%s %s: %s: %s", k, q, resp.Status, body)
	}
	var rr server.RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return complexobj.QueryResult{}, false, fmt.Errorf("%s %s: %w", k, q, err)
	}
	c.hist.Observe(time.Since(start))
	if rr.Committed {
		c.acked.Add(1)
		c.commitHist.Observe(time.Duration(rr.CommitUS) * time.Microsecond)
	}
	return complexobj.QueryResult{
		Query:     q,
		Model:     k,
		Supported: rr.Supported,
		Units:     rr.Units,
		Raw:       rr.Raw,
		PerUnit:   rr.PerUnit,
	}, false, nil
}

// measureServed builds the measurement table by driving a coserve: the
// same rows as measureModels, with every cell executed server-side on a
// pooled copy-on-write view. Closed loop by default (clients workers,
// each issuing its next request when the previous one answered); rate > 0
// switches to an open loop firing requests at the given rate regardless
// of completions. Rows are deterministic and identical across repeats, so
// the table is filled from whichever repeat answered; the latency report
// goes to stderr (and, with -report, as JSON to a file) so stdout stays
// byte-comparable to the local table.
func measureServed(baseURL string, models []complexobj.ModelKind, queries []cobench.Query,
	gen cobench.Config, w cobench.Workload, bufferPages, clients int, rate float64, repeat int,
	writeFrac float64, reportPath string, get func(complexobj.QueryResult) float64) ([][]string, error) {

	c := newServedClient(baseURL)
	if err := c.checkServer(gen, bufferPages); err != nil {
		return nil, err
	}
	if clients < 1 {
		clients = 1
	}
	c.writeFrac = writeFrac
	var commitsBefore int64
	if writeFrac > 0 {
		d, err := c.serverDurability()
		if err != nil {
			return nil, err
		}
		if d == nil {
			return nil, fmt.Errorf("-write-frac needs a durable server (start coserve -wal)")
		}
		commitsBefore = d.Commits
		c.walBefore = d
	}

	rows := make([][]string, len(models))
	var rowsMu sync.Mutex
	cell := func(mi int, k complexobj.ModelKind, q cobench.Query, qi int) error {
		res, _, err := c.runOne(k, q, w)
		if err != nil {
			return err
		}
		val := "-"
		if res.Supported {
			val = report.Num(get(res))
		}
		rowsMu.Lock()
		if rows[mi] == nil {
			rows[mi] = make([]string, 1+len(queries))
			rows[mi][0] = k.String()
		}
		rows[mi][1+qi] = val
		rowsMu.Unlock()
		return nil
	}

	start := time.Now()
	var err error
	if rate > 0 {
		err = openLoop(models, queries, repeat, rate, cell)
	} else {
		// Closed loop: one task per (model, query, repeat) cell, so the
		// requested client count is actually in flight even when few
		// models are selected (every cell is an independent cold-cache
		// measurement; per-client ordering cannot affect the numbers).
		// Models cycle fastest so concurrent requests spread across
		// models — and, against a router, across shards — instead of
		// arriving in single-model bursts.
		tasks := len(models) * len(queries) * repeat
		if clients > tasks {
			clients = tasks
		}
		err = fanout.Run(tasks, clients, func(i int) error {
			mi := i % len(models)
			qi := (i / len(models)) % len(queries)
			return cell(mi, models[mi], queries[qi], qi)
		})
	}
	if err != nil {
		return nil, err
	}
	if writeFrac > 0 {
		d, err := c.serverDurability()
		if err != nil {
			return nil, err
		}
		c.walAfter = d
	}
	if err := c.report(os.Stderr, time.Since(start), clients, rate, reportPath); err != nil {
		return nil, err
	}
	if writeFrac > 0 {
		if err := c.commitVerdict(os.Stderr, commitsBefore); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// serverDurability reads the server's durability block from /info (nil
// when the server runs without a write-ahead log).
func (c *servedClient) serverDurability() (*server.DurabilityInfo, error) {
	var info server.InfoResponse
	if err := c.getJSON("/info", &info); err != nil {
		return nil, err
	}
	return info.Durability, nil
}

// walDelta is the run's write-ahead-log traffic: the difference between
// the durability counters sampled before and after the run. Nil outside
// write mode (or when the samples are missing).
func (c *servedClient) walDelta() *WALReport {
	if c.walBefore == nil || c.walAfter == nil {
		return nil
	}
	d := &WALReport{
		AppendedBytes: c.walAfter.AppendedBytes - c.walBefore.AppendedBytes,
		PayloadBytes:  c.walAfter.PayloadBytes - c.walBefore.PayloadBytes,
		Syncs:         c.walAfter.Syncs - c.walBefore.Syncs,
	}
	if d.PayloadBytes > 0 {
		d.WriteAmplification = float64(d.AppendedBytes) / float64(d.PayloadBytes)
	}
	return d
}

// serverCommits reads the server's acknowledged-commit counter from
// /info (durable=false when the server runs without a write-ahead log).
func (c *servedClient) serverCommits() (commits int64, durable bool, _ error) {
	d, err := c.serverDurability()
	if err != nil {
		return 0, false, err
	}
	if d == nil {
		return 0, false, nil
	}
	return d.Commits, true, nil
}

// commitVerdict prints the write-mode summary and enforces the
// lost-update gate: every commit the server acknowledged to this client
// must be reflected in the server's own commit counter. The server delta
// may exceed the acked count (a retried request can commit twice after a
// lost acknowledgment) — only the other direction is an error.
func (c *servedClient) commitVerdict(w io.Writer, commitsBefore int64) error {
	after, durable, err := c.serverCommits()
	if err != nil {
		return err
	}
	acked := c.acked.Load()
	delta := after - commitsBefore
	lost := acked - delta
	if !durable || lost < 0 {
		lost = 0
	}
	s := metrics.Summarize(c.commitHist.Snapshot())
	fmt.Fprintf(w, "commits: %d acknowledged, server delta %d, lost %d, commit latency p50 %s / p99 %s / max %s\n",
		acked, delta, lost,
		micros(float64(s.P50Micros)), micros(float64(s.P99Micros)), micros(float64(s.MaxMicros)))
	if d := c.walDelta(); d != nil && d.PayloadBytes > 0 {
		fmt.Fprintf(w, "wal: %d B appended for %d B of page payload (%.2fx write amplification, %d syncs)\n",
			d.AppendedBytes, d.PayloadBytes, d.WriteAmplification, d.Syncs)
	}
	if lost > 0 {
		return fmt.Errorf("lost updates: %d acknowledged commits are missing from the server's counter (%d acked, server delta %d)",
			lost, acked, delta)
	}
	return nil
}

// openLoop fires every (model, query, repeat) request at a fixed rate,
// each in its own goroutine — in-flight count is unbounded, as an open
// loop must be. The first error is reported after all requests finish.
func openLoop(models []complexobj.ModelKind, queries []cobench.Query, repeat int,
	rate float64, cell func(mi int, k complexobj.ModelKind, q cobench.Query, qi int) error) error {

	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 { // -rate above 1e9 (or +Inf) truncates to 0, which NewTicker rejects
		interval = time.Nanosecond
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for r := 0; r < repeat; r++ {
		for mi := range models {
			for qi := range queries {
				<-tick.C
				wg.Add(1)
				go func(mi, qi int) {
					defer wg.Done()
					if err := cell(mi, models[mi], queries[qi], qi); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
					}
				}(mi, qi)
			}
		}
	}
	wg.Wait()
	return firstErr
}

// report prints the latency/throughput summary to w (stderr, so stdout
// stays byte-comparable to the local table) and, when reportPath is
// non-empty, writes the machine-readable RunReport there. Both render
// the same histogram summary — one reporting path.
func (c *servedClient) report(w io.Writer, wall time.Duration, clients int, rate float64, reportPath string) error {
	snap := c.hist.Snapshot()
	if snap.Count == 0 {
		return nil
	}
	s := metrics.Summarize(snap)
	mode := fmt.Sprintf("closed loop, %d clients", clients)
	if rate > 0 {
		mode = fmt.Sprintf("open loop, %.1f req/s", rate)
	}
	fmt.Fprintf(w, "served %d requests in %v (%s): %.1f req/s, latency min %s / mean %s / p50 %s / p90 %s / p99 %s / p99.9 %s / max %s, retries %d, shed %d\n",
		snap.Count, wall.Round(time.Millisecond), mode,
		float64(snap.Count)/wall.Seconds(),
		micros(float64(s.MinMicros)), micros(s.MeanMicros),
		micros(float64(s.P50Micros)), micros(float64(s.P90Micros)),
		micros(float64(s.P99Micros)), micros(float64(s.P999Micros)),
		micros(float64(s.MaxMicros)),
		c.retries.Load(), c.shed.Load())
	if reportPath == "" {
		return nil
	}
	rep := RunReport{
		Mode:        "closed",
		WallSeconds: wall.Seconds(),
		Clients:     clients,
		RateTarget:  rate,
		Requests:    snap.Count,
		Throughput:  float64(snap.Count) / wall.Seconds(),
		Retries:     c.retries.Load(),
		Shed:        c.shed.Load(),
		Latency:     s,
	}
	if rate > 0 {
		rep.Mode = "open"
	}
	if acked := c.acked.Load(); acked > 0 {
		rep.Commits = acked
		cl := metrics.Summarize(c.commitHist.Snapshot())
		rep.CommitLatency = &cl
	}
	if w := c.walDelta(); w != nil {
		rep.WAL = w
	}
	return writeReport(reportPath, &rep)
}

// micros renders a microsecond figure as a duration string (the stderr
// line's human units).
func micros(us float64) string {
	return time.Duration(us * float64(time.Microsecond)).Round(time.Microsecond).String()
}

func trimSlash(s string) string {
	for len(s) > 0 && s[len(s)-1] == '/' {
		s = s[:len(s)-1]
	}
	return s
}
