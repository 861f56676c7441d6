package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"complexobj"
	"complexobj/cobench"
)

// benchServer builds a small served installation: snapshot every model,
// open a Server over it and return its handler. The scale is deliberately
// tiny — the benchmark measures the per-request serving overhead (view
// acquire, run, recycle, JSON), not the query work itself.
func benchServer(b *testing.B, n int) http.Handler {
	b.Helper()
	gen := cobench.DefaultConfig().WithN(n)
	stations, err := cobench.Generate(gen)
	if err != nil {
		b.Fatal(err)
	}
	var dbs []*complexobj.DB
	for _, k := range complexobj.AllModels() {
		db, err := complexobj.Open(k, complexobj.Options{BufferPages: 256})
		if err != nil {
			b.Fatal(err)
		}
		if err := db.Load(stations); err != nil {
			b.Fatal(err)
		}
		dbs = append(dbs, db)
	}
	path := filepath.Join(b.TempDir(), "serve.codb")
	if err := complexobj.WriteSnapshot(path, gen, dbs...); err != nil {
		b.Fatal(err)
	}
	for _, db := range dbs {
		db.Close()
	}
	srv, err := New(Config{Snapshot: path, BufferPages: 256, MaxViews: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	return srv.Handler()
}

// BenchmarkServeDrive measures one /run request end to end through the
// handler — admission, view acquire from the pool, query execution over
// the recycled copy-on-write view, JSON response — for a navigation cell
// (2b) and a point fetch (1a), through TestRunHandlerAllocs's writer,
// which allocates nothing itself. Allocations here multiply by every
// request of a drive, so the allocs/op figures are regression-gated in CI
// (ci/bench-baseline.txt).
func BenchmarkServeDrive(b *testing.B) {
	h := benchServer(b, 40)
	w := cobench.Workload{Loops: 2, Samples: 3, Seed: 7}
	for _, c := range []struct {
		name string
		k    complexobj.ModelKind
		q    cobench.Query
	}{{"2b", complexobj.DASDBSNSM, cobench.Q2b}, {"1a", complexobj.DSM, cobench.Q1a}} {
		b.Run(c.name, func(b *testing.B) {
			req := httptest.NewRequest(http.MethodGet, "/run?"+RunSpecFor(c.k, c.q, w).Values().Encode(), nil)
			rw := newReusedWriter()
			// One warm-up request so pools, views and scratch reach steady state.
			h.ServeHTTP(rw, req)
			if rw.code != http.StatusOK {
				b.Fatalf("warm-up request: %d %s", rw.code, rw.body.Bytes())
			}
			var rr RunResponse
			if err := json.Unmarshal(rw.body.Bytes(), &rr); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rw.reset()
				h.ServeHTTP(rw, req)
				if rw.code != http.StatusOK {
					b.Fatalf("request %d: %d", i, rw.code)
				}
			}
		})
	}
}
