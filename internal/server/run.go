package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"time"

	"complexobj"
	"complexobj/cobench"
)

// handleRun is the request path: validate, look the model up, then admit
// → lease → execute → commit → respond, locking in doc.go's order.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	spec := RunSpecFromValues(r.URL.Query())
	kind, q, wl, err := spec.Resolve(s.cfg.Workload)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	commitReq, err := spec.CommitRequested()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if commitReq && s.clog == nil {
		httpError(w, http.StatusBadRequest, "commit requested but the server has no write-ahead log (-wal)")
		return
	}
	m, sharded, mapVersion, owned := s.lookup(kind)
	if m == nil {
		if sharded {
			// 421 Misdirected Request: the model exists but lives on another
			// backend — the structured signal coshard re-resolves on, kept
			// distinct from 400 (bad request) and 503 (retry here later).
			misdirected(w, kind, mapVersion, owned)
			return
		}
		httpError(w, http.StatusBadRequest, "model %s is not served", kind)
		return
	}

	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}

	// arrived anchors the queue-wait half of the latency split: admission
	// wait plus view-pool wait, everything spent before the query owns an
	// engine.
	arrived := time.Now()
	if !s.admit(ctx) {
		s.shedAdmit.Add(1)
		unavailable(w, "admission: %d requests in flight: %v", s.maxInflight, ctx.Err())
		return
	}
	defer s.leave()
	if commitReq {
		m.commitMu.Lock()
		defer m.commitMu.Unlock()
	}

	start := time.Now()
	view := s.lease(ctx, w, m)
	if view == nil {
		return
	}
	queueWait := time.Since(arrived)
	res, err := s.execute(ctx, view, q, wl)
	var commit complexobj.CommitInfo
	var commitUS int64
	if err == nil && commitReq {
		commit, commitUS, err = s.commit(view, kind)
	}
	if cerr := view.Close(); cerr != nil {
		// The request measured fine; a failed recycle only cost the pool
		// a view (visible as Destroyed in /info) — log it rather than
		// failing the response.
		log.Printf("server: %s %s: view recycle: %v", kind, q, cerr)
	}
	if err != nil {
		s.refuse(w, kind, q, err)
		return
	}
	resp := RunResponse{
		Model:     res.Model.String(),
		Query:     res.Query.String(),
		Supported: res.Supported,
		Units:     res.Units,
		Workload:  WorkloadParams{Loops: wl.Loops, Samples: wl.Samples, Seed: wl.Seed},
		Raw:       res.Raw,
		PerUnit:   res.PerUnit,
		ElapsedUS: time.Since(start).Microseconds(),
	}
	if commitReq {
		resp.Committed = true
		resp.CommitSeq = commit.Seq
		resp.CommitGen = commit.Gen
		resp.CommitUS = commitUS
		// Size-triggered compaction: bound the log — and the replay work
		// a crash inherits — without a background goroutine. Failure is
		// logged, not returned: the commit itself is already durable.
		if ran, cperr := s.clog.MaybeCheckpoint(s.cfg.CheckpointBytes); cperr != nil {
			log.Printf("server: checkpoint after %s commit: %v", kind, cperr)
		} else if ran {
			log.Printf("server: checkpointed write-ahead log (%s)", s.cfg.WALDir)
		}
	}
	s.respond(w, &resp, queueWait, res.Elapsed)
}

// admit takes a slot of the server-wide admission gate, or reports false
// when ctx ends first; every true is paired with one leave.
func (s *Server) admit(ctx context.Context) bool {
	if s.slots == nil {
		return true
	}
	select {
	case s.slots <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

// leave returns the slot admit took.
func (s *Server) leave() {
	if s.slots != nil {
		<-s.slots
	}
}

// lease borrows a view from the model's pool, or answers 503 itself and
// returns nil: a shed when the deadline ended the wait, a plain 503 when
// the pool was released meanwhile (the router retries the new owner).
func (s *Server) lease(ctx context.Context, w http.ResponseWriter, m *served) *complexobj.View {
	view, err := m.pool.AcquireContext(ctx)
	switch {
	case err == nil:
		return view
	case ctx.Err() != nil:
		s.shedDeadline.Add(1)
		unavailable(w, "acquire view: %v", err)
	default:
		httpError(w, http.StatusServiceUnavailable, "acquire view: %v", err)
	}
	return nil
}

// execute runs the query on the leased view with panic containment, and
// quarantines the view when what happened makes its reuse unsafe.
func (s *Server) execute(ctx context.Context, view *complexobj.View, q cobench.Query, wl cobench.Workload) (res complexobj.QueryResult, err error) {
	// A panicking query path (an injected backend panic, a latent bug)
	// becomes a structured 500 and the view is closed for good, never
	// recycled, so whatever the panic left behind cannot leak into a later
	// request. The engine's deferred mutex unlocks make Close after an
	// unwound panic safe.
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			view.Quarantine()
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	res, err = view.RunContext(ctx, q, wl)
	if err != nil && complexobj.IsPermanentFault(err) {
		// The engine has a poisoned page; recycling would hand the next
		// request a view that can never read it. Retire it instead.
		view.Quarantine()
	}
	return res, err
}

// commit makes the run's mutations durable (the WAL fsync has
// acknowledged them when it returns) and reports the commit's latency in
// µs; a failed commit quarantines the view, whose overlay may be
// half-promoted.
func (s *Server) commit(view *complexobj.View, kind complexobj.ModelKind) (complexobj.CommitInfo, int64, error) {
	start := time.Now()
	info, err := view.Commit(s.clog)
	elapsed := time.Since(start)
	if err != nil {
		view.Quarantine()
		return info, 0, fmt.Errorf("commit: %w", err)
	}
	s.commitLat.observe(kind.String(), "commit", 0, elapsed.Truncate(time.Microsecond))
	return info, elapsed.Microseconds(), nil
}

// refuse answers a run (or commit) that failed: 503 + Retry-After when
// its deadline or its client ended it, 500 otherwise — never counters.
func (s *Server) refuse(w http.ResponseWriter, kind complexobj.ModelKind, q cobench.Query, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.shedDeadline.Add(1)
		unavailable(w, "run %s %s: %v", kind, q, err)
	case errors.Is(err, context.Canceled):
		// The client went away; nobody reads this response. Report it as
		// unavailable without counting it against the deadline budget.
		unavailable(w, "run %s %s: %v", kind, q, err)
	default:
		httpError(w, http.StatusInternalServerError, "run %s %s: %v", kind, q, err)
	}
}

// respond counts a successful run — its /stats cell and its latency split
// (queue wait measured by the handler, service time stamped by the
// workload runner) cover exactly the same runs — and writes the payload.
func (s *Server) respond(w http.ResponseWriter, resp *RunResponse, queueWait, service time.Duration) {
	s.requests.Add(1)
	s.record(resp)
	s.lat.observe(resp.Model, resp.Query, queueWait, service)
	writeJSON(w, resp)
}
