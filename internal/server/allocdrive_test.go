package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"sync"
	"testing"

	"complexobj"
	"complexobj/cobench"
)

// reusedWriter is a ResponseWriter that allocates nothing once warm: reset
// clears its header map and rewinds its body instead of replacing them, so
// what AllocsPerRun counts around ServeHTTP is the handler's own.
type reusedWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func newReusedWriter() *reusedWriter { return &reusedWriter{h: make(http.Header)} }

func (w *reusedWriter) reset() {
	clear(w.h)
	w.code = 0
	w.body.Reset()
}

func (w *reusedWriter) Header() http.Header { return w.h }

func (w *reusedWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *reusedWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}

// TestRunHandlerAllocs pins what one /run costs the server: in steady
// state the handler — parse, admit, lease, run, recycle, record, encode —
// allocates at most the one-word *complexobj.View lease wrapper, kept so a
// stale handle can never reach a recycled engine. Each cell is answered
// and checked once, then served again under AllocsPerRun.
func TestRunHandlerAllocs(t *testing.T) {
	if raceEnabled || poison {
		t.Skip("under -race the counts are the detector's, under the poison tag pooled memory is not reused")
	}
	path, _ := buildSnapshot(t, 40)
	srv, err := New(Config{Snapshot: path, BufferPages: 128, MaxViews: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	w := cobench.Workload{Loops: 4, Samples: 1, Seed: 7}
	for _, c := range []struct {
		k complexobj.ModelKind
		q cobench.Query
	}{{complexobj.DSM, cobench.Q1a}, {complexobj.DASDBSNSM, cobench.Q2b}, {complexobj.NSM, cobench.Q2a}} {
		name := c.k.String() + " " + c.q.String()
		req := httptest.NewRequest(http.MethodGet, "/run?"+RunSpecFor(c.k, c.q, w).Values().Encode(), nil)
		rw := newReusedWriter()
		serve := func() {
			rw.reset()
			h.ServeHTTP(rw, req)
			if rw.code != http.StatusOK {
				t.Fatalf("%s: %d %s", name, rw.code, rw.body.Bytes())
			}
		}
		serve()
		var rr RunResponse
		if err := json.Unmarshal(rw.body.Bytes(), &rr); err != nil || !rr.Supported || rr.Workload.Samples != 1 {
			t.Fatalf("%s: %+v, %v", name, rr, err)
		}
		if got := testing.AllocsPerRun(20, serve); got > 1 {
			t.Errorf("%s: %v allocations per request, want at most the lease wrapper's 1", name, got)
		}
	}
}

// TestServeDriveAllocMeasure is the BENCH measurement harness, not a
// gate: with COMPLEXOBJ_ALLOCS=1 it serves a paper-scale snapshot
// (N=1500) to 8 concurrent clients driving every (model, query) cell
// three times — the cobench -clients 8 drive, in process — and logs the
// total bytes allocated across the drive (runtime.MemStats.TotalAlloc
// delta). Client-side request/JSON allocation is included identically in
// every run of this harness, so deltas between binaries compare the
// serving path fairly.
func TestServeDriveAllocMeasure(t *testing.T) {
	if os.Getenv("COMPLEXOBJ_ALLOCS") == "" {
		t.Skip("set COMPLEXOBJ_ALLOCS=1 to run the allocation measurement drive")
	}
	path, _ := buildSnapshot(t, 1500)
	srv, err := New(Config{Snapshot: path, BufferPages: 1200, MaxViews: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	type cell struct{ model, query string }
	var cells []cell
	for rep := 0; rep < 3; rep++ {
		for _, k := range complexobj.AllModels() {
			for _, q := range cobench.AllQueries() {
				cells = append(cells, cell{k.String(), q.String()})
			}
		}
	}
	work := make(chan cell, len(cells))
	for _, c := range cells {
		work <- c
	}
	close(work)

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := hs.Client()
			for c := range work {
				params := url.Values{"model": {c.model}, "query": {c.query}}
				resp, err := hc.Get(hs.URL + "/run?" + params.Encode())
				if err != nil {
					errs <- err
					return
				}
				var rr RunResponse
				err = json.NewDecoder(resp.Body).Decode(&rr)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s/%s: status %d", c.model, c.query, resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("serve-drive-alloc requests=%d bytes=%d (%.2f GB)",
		len(cells), alloc, float64(alloc)/1e9)
}
