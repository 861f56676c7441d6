package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"time"

	"complexobj"
	"complexobj/internal/server"
)

// The depth replay prices the request path from outside. Nothing below
// the HTTP client can be wrapped in a span without editing the program,
// so the same op is executed once per public entry point, each one layer
// deeper than the last:
//
//	d0  http.Client.Do over loopback            span http.client_do
//	d1  srv.Handler().ServeHTTP into a recorder  span server.serve_http
//	d2  ViewPool.AcquireContext / View.RunContext / View.Commit /
//	    View.Close on a pool over the same base  spans viewpool.acquire,
//	                                             workload.run, view.commit,
//	                                             viewpool.release
//
// The deeper executions are re-based into the shallower one (tracer.
// rebase), so one op reads as one tree and a layer's self time is the
// difference between two depths: http = d0 − d1, server = d1 − Σd2.
// The tracer must not be nil here.

// commitHarness is a private durable commit path — commit log, bases and
// view pools over a freshly seeded directory — for the d2 replay of
// committing ops and for the commit-log probes.
type commitHarness struct {
	clog  *complexobj.CommitLog
	bases map[complexobj.ModelKind]*complexobj.Base
	pools map[complexobj.ModelKind]*complexobj.ViewPool
	// What Recover did when the harness opened: batches replayed, and how
	// long that took.
	replayed   int
	recoverDur time.Duration
}

// openCommitHarness opens the commit log in dir (seeded by
// SeedCommitDir, or left behind by a server or an earlier harness),
// registers the five bases and recovers.
func openCommitHarness(dir string) (*commitHarness, error) {
	h := &commitHarness{
		bases: make(map[complexobj.ModelKind]*complexobj.Base),
		pools: make(map[complexobj.ModelKind]*complexobj.ViewPool),
	}
	var err error
	if h.clog, err = complexobj.OpenCommitLog(dir); err != nil {
		return nil, err
	}
	for _, k := range complexobj.AllModels() {
		b, err := h.clog.OpenBase(k, "")
		if err != nil {
			h.close()
			return nil, err
		}
		h.bases[k] = b
		if h.pools[k], err = complexobj.NewViewPool(b, complexobj.Options{}, 2); err != nil {
			h.close()
			return nil, err
		}
	}
	t0 := time.Now()
	if h.replayed, err = h.clog.Recover(); err != nil {
		h.close()
		return nil, err
	}
	h.recoverDur = time.Since(t0)
	return h, nil
}

func (h *commitHarness) close() {
	for _, p := range h.pools {
		p.Close()
	}
	for _, b := range h.bases {
		b.Close()
	}
	if h.clog != nil {
		h.clog.Close()
	}
}

// readPools opens a read-only base and view pool per model over the
// snapshot, for the d2 replay of the non-committing workloads.
func readPools(snapshotPath string) (map[complexobj.ModelKind]*complexobj.ViewPool, func(), error) {
	pools := make(map[complexobj.ModelKind]*complexobj.ViewPool)
	var bases []*complexobj.Base
	closeAll := func() {
		for _, p := range pools {
			p.Close()
		}
		for _, b := range bases {
			b.Close()
		}
	}
	for _, k := range complexobj.AllModels() {
		b, err := complexobj.OpenBase(snapshotPath, k)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		bases = append(bases, b)
		if pools[k], err = complexobj.NewViewPool(b, complexobj.Options{}, 2); err != nil {
			closeAll()
			return nil, nil, err
		}
	}
	return pools, closeAll, nil
}

// replayed accumulates what the depth replay saw.
type replayed struct {
	ops       int
	d0Total   time.Duration   // Σ http.client_do, for the tracing-overhead figure
	raw       server.Counters // Σ counters of the d0 responses
	dirtyKB   float64         // Σ committed page bytes / 1024 (d2 commits)
	promoteKB float64         // Σ arena bytes copied by those commits / 1024
}

// depth2 is what the deepest execution of one op measured, call by call.
type depth2 struct {
	acquire, run, commit, release time.Duration
}

func (d depth2) total() time.Duration { return d.acquire + d.run + d.commit + d.release }

// replayServed replays ops 0..n-1 of w at the three depths, single
// client, until n ops are done or the budget is spent (whole cell cycles
// only, so every cell weighs the same).
//
// Whichever depth runs first on an op pulls that op's pages into the CPU
// caches for the other two, so the order rotates with every cycle
// through the cells: each depth goes first a third of the time, and the
// per-cell medians cancel the advantage instead of booking it as the
// shallower layer's self time.
func replayServed(tr *tracer, w *servedWorkload, pools map[complexobj.ModelKind]*complexobj.ViewPool,
	clog *complexobj.CommitLog, n int, budget time.Duration) (*replayed, error) {
	handler := w.env.srv.Handler()
	cells := len(w.def.Cells)
	out := &replayed{}
	ctx := context.Background()
	deadline := time.Now().Add(budget)
	for i := 0; i < n; i++ {
		if i%cells == 0 && i > 0 && time.Now().After(deadline) {
			break
		}
		o := w.seq.at(i)
		cl := w.def.Cells[o.Cell]
		fail := func(what string, err error) error {
			return fmt.Errorf("replay op %d (%s): %s: %w", i, cl, what, err)
		}
		var (
			start0 time.Duration // when the d0 execution began, since the tracer's epoch
			d0, d1 time.Duration
			d2     depth2
			resp   server.RunResponse
		)
		depths := [3]func() error{
			// d0: the request as the measured rounds issue it.
			func() error {
				start0 = time.Since(tr.epoch)
				ok := w.do(0, i)
				d0 = time.Since(tr.epoch) - start0
				if !ok {
					return fail("request", fmt.Errorf("not a 200 with supported:true"))
				}
				if err := json.Unmarshal(w.clients[0].buf.Bytes(), &resp); err != nil {
					return fail("response", err)
				}
				return nil
			},
			// d1: the same request handed straight to the server's handler.
			func() error {
				req := httptest.NewRequest("GET", w.url(i), nil)
				rec := httptest.NewRecorder()
				t0 := time.Now()
				handler.ServeHTTP(rec, req)
				d1 = time.Since(t0)
				if rec.Code != 200 {
					return fail("handler", fmt.Errorf("status %d", rec.Code))
				}
				return nil
			},
			// d2: what the handler does with a view, call by call.
			func() error {
				pool := pools[cl.Model]
				wl := cl.workload(o.Seed)
				t0 := time.Now()
				v, err := pool.AcquireContext(ctx)
				d2.acquire = time.Since(t0)
				if err != nil {
					return fail("acquire", err)
				}
				t0 = time.Now()
				res, err := v.RunContext(ctx, cl.Query, wl)
				d2.run = time.Since(t0)
				if err == nil && !res.Supported {
					err = fmt.Errorf("unsupported")
				}
				if err != nil {
					v.Close()
					return fail("run", err)
				}
				if cl.Commit {
					t0 = time.Now()
					info, err := v.Commit(clog)
					d2.commit = time.Since(t0)
					if err != nil {
						v.Close()
						return fail("commit", err)
					}
					out.dirtyKB += float64(info.Bytes) / 1024
					if info.Pages > 0 {
						out.promoteKB += float64(pool.Base().ArenaBytes()) / 1024
					}
				}
				t0 = time.Now()
				err = v.Close()
				d2.release = time.Since(t0)
				if err != nil {
					return fail("release", err)
				}
				return nil
			},
		}
		for k := range depths {
			if err := depths[(k+i/cells)%len(depths)](); err != nil {
				return nil, err
			}
		}

		// One tree per op: the handler span centred in the client span,
		// the view calls laid end to end and centred in the handler span.
		id0 := tr.add("http.client_do", 0, i, int64(start0), int64(start0+d0))
		id1 := tr.rebase("server.serve_http", id0, i, max(0, int64(d0-d1)/2), int64(d1))
		off := max(0, int64(d1-d2.total())/2)
		for _, c := range []struct {
			name string
			d    time.Duration
		}{{"viewpool.acquire", d2.acquire}, {"workload.run", d2.run}, {"view.commit", d2.commit}, {"viewpool.release", d2.release}} {
			if c.name == "view.commit" && !cl.Commit {
				continue
			}
			tr.rebase(c.name, id1, i, off, int64(c.d))
			off += int64(c.d)
		}
		out.d0Total += d0
		out.raw.PagesRead += resp.Raw.PagesRead
		out.raw.PagesWritten += resp.Raw.PagesWritten
		out.raw.ReadCalls += resp.Raw.ReadCalls
		out.raw.WriteCalls += resp.Raw.WriteCalls
		out.raw.BufferFixes += resp.Raw.BufferFixes
		out.raw.BufferHits += resp.Raw.BufferHits
		out.ops++
	}
	return out, nil
}

// perCellMean condenses per-op values into one figure for the workload:
// the median within each cell (robust against a collection landing on one
// op), then the mean across cells (each cell is an equal share of the op
// sequence, so this is the expected cost of one op).
func perCellMean(byCell map[int][]float64) float64 {
	if len(byCell) == 0 {
		return 0
	}
	var sum float64
	for _, vs := range byCell {
		sum += median(vs)
	}
	return sum / float64(len(byCell))
}

// spanFigures returns perCellMean of val over the spans named name, with
// cells derived from the op index.
func spanFigures(spans []span, cells int, val func(span) int64) map[string]float64 {
	grouped := make(map[string]map[int][]float64)
	for _, s := range spans {
		g := grouped[s.Name]
		if g == nil {
			g = make(map[int][]float64)
			grouped[s.Name] = g
		}
		g[s.Op%cells] = append(g[s.Op%cells], float64(val(s)))
	}
	out := make(map[string]float64, len(grouped))
	for name, g := range grouped {
		out[name] = perCellMean(g)
	}
	return out
}
