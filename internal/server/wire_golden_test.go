package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"

	"complexobj"
	"complexobj/cobench"
	"complexobj/internal/shard"
)

var updateWireGolden = flag.Bool("update", false, "rewrite testdata/wire.golden from the running code")

// TestWireGolden holds the served wire format to a committed golden: the
// key set and key ORDER of every JSON payload (values zeroed — they are
// pinned elsewhere, against the batch baseline) and the sorted set of
// /metrics sample names with their labels, for a read-only server, a
// -wal server after a commit=1 run, a fault-armed server, and a sharded
// backend through an acquire/release. cobench, coshard and bench/ decode these payloads by
// name; a field that moves, renames or drops out fails here first.
//
// Regenerate with `go test ./internal/server -run TestWireGolden -update`
// only for a change that is meant to alter the wire.
func TestWireGolden(t *testing.T) {
	path, _ := buildSnapshot(t, 40)
	w := cobench.Workload{Loops: 8, Samples: 4, Seed: 1993}
	var got strings.Builder

	serve := func(cfg Config) (*httptest.Server, func()) {
		t.Helper()
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		return hs, func() { hs.Close(); srv.Close() }
	}
	fetch := func(hs *httptest.Server, method, url string, wantCode int) []byte {
		t.Helper()
		req, err := http.NewRequest(method, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hs.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != wantCode {
			t.Fatalf("%s %s: %s, want %d: %s", method, url, resp.Status, wantCode, body)
		}
		return body
	}
	// capture records one JSON payload under a title, values zeroed.
	capture := func(title string, hs *httptest.Server, method, path string, wantCode int) {
		t.Helper()
		fmt.Fprintf(&got, "== %s\n%s\n", title, zeroedJSON(t, fetch(hs, method, hs.URL+path, wantCode)))
	}
	captureMetrics := func(title string, hs *httptest.Server) {
		t.Helper()
		fmt.Fprintf(&got, "== %s\n%s\n", title,
			strings.Join(metricNames(fetch(hs, http.MethodGet, hs.URL+"/metrics", http.StatusOK)), "\n"))
	}
	runPath := func(model, query string) string {
		return runURL("", model, query, w)
	}

	// Read-only server.
	ro, closeRO := serve(Config{Snapshot: path, BufferPages: 128, MaxViews: 2})
	capture("readonly GET /run", ro, http.MethodGet, runPath("dsm", "1a"), http.StatusOK)
	capture("readonly GET /run (second cell)", ro, http.MethodGet, runPath("dnsm", "2b"), http.StatusOK)
	capture("readonly GET /run bad request", ro, http.MethodGet, "/run?model=nope&query=1a", http.StatusBadRequest)
	capture("readonly GET /stats", ro, http.MethodGet, "/stats", http.StatusOK)
	capture("readonly GET /info", ro, http.MethodGet, "/info", http.StatusOK)
	capture("readonly GET /healthz", ro, http.MethodGet, "/healthz", http.StatusOK)
	captureMetrics("readonly GET /metrics", ro)
	closeRO()

	// Durable server: one committed update run.
	wal, closeWAL := serve(Config{Snapshot: path, BufferPages: 128, MaxViews: 2, WALDir: t.TempDir()})
	capture("wal GET /run commit=1", wal, http.MethodGet, runPath("dsm", "3a")+"&commit=1", http.StatusOK)
	capture("wal GET /stats", wal, http.MethodGet, "/stats", http.StatusOK)
	capture("wal GET /info", wal, http.MethodGet, "/info", http.StatusOK)
	capture("wal GET /healthz", wal, http.MethodGet, "/healthz", http.StatusOK)
	captureMetrics("wal GET /metrics", wal)
	closeWAL()

	// Fault-armed server: the resilience block grows the injector's
	// counters. Latency faults only, so the run itself succeeds.
	plan, err := complexobj.ParseFaultPlan("seed=7,latency=1us")
	if err != nil {
		t.Fatal(err)
	}
	fa, closeFA := serve(Config{Snapshot: path, BufferPages: 128, MaxViews: 2, Faults: plan})
	capture("faults GET /run", fa, http.MethodGet, runPath("dsm", "1a"), http.StatusOK)
	capture("faults GET /info", fa, http.MethodGet, "/info", http.StatusOK)
	captureMetrics("faults GET /metrics", fa)
	closeFA()

	// Sharded backend owning shard 0 of 2, then through a handoff.
	mapPath := splitForTest(t, path, 2)
	m, err := shard.Load(mapPath)
	if err != nil {
		t.Fatal(err)
	}
	sh0, _ := m.Shard(0)
	sh1, _ := m.Shard(1)
	sh, closeSh := serve(Config{ShardMap: mapPath, Shards: []int{0}, BufferPages: 128, MaxViews: 2})
	capture("sharded GET /run", sh, http.MethodGet, runPath(sh0.Models[0], "1a"), http.StatusOK)
	capture("sharded GET /run not owned (421)", sh, http.MethodGet, runPath(sh1.Models[0], "1a"), http.StatusMisdirectedRequest)
	capture("sharded GET /info", sh, http.MethodGet, "/info", http.StatusOK)
	captureMetrics("sharded GET /metrics", sh)
	capture("sharded POST /shards/acquire", sh, http.MethodPost, "/shards/acquire?shard=1", http.StatusOK)
	capture("sharded GET /info (both shards)", sh, http.MethodGet, "/info", http.StatusOK)
	capture("sharded POST /shards/release", sh, http.MethodPost, "/shards/release?shard=0", http.StatusOK)
	capture("sharded GET /info (after handoff)", sh, http.MethodGet, "/info", http.StatusOK)
	capture("sharded POST /shards/release not owned (409)", sh, http.MethodPost, "/shards/release?shard=0", http.StatusConflict)
	closeSh()

	const golden = "testdata/wire.golden"
	if *updateWireGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, x string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			x = wl[i]
		}
		if g != x {
			t.Fatalf("wire format differs from %s at line %d:\n got: %s\nwant: %s", golden, i+1, g, x)
		}
	}
}

// zeroedJSON re-renders a JSON document with every scalar replaced by
// its zero value — numbers 0, strings "", booleans false — and every
// object key kept, in document order.
func zeroedJSON(t *testing.T, raw []byte) string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var b strings.Builder
	var walk func()
	walk = func() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("decode %q: %v", raw, err)
		}
		switch v := tok.(type) {
		case json.Delim:
			closer := byte('}')
			if v == '[' {
				closer = ']'
			}
			b.WriteString(v.String())
			for i := 0; dec.More(); i++ {
				if i > 0 {
					b.WriteByte(',')
				}
				if v == '{' {
					key, err := dec.Token()
					if err != nil {
						t.Fatalf("decode %q: %v", raw, err)
					}
					fmt.Fprintf(&b, "%q:", key)
				}
				walk()
			}
			if _, err := dec.Token(); err != nil {
				t.Fatalf("decode %q: %v", raw, err)
			}
			b.WriteByte(closer)
		case string:
			b.WriteString(`""`)
		case json.Number:
			b.WriteString("0")
		case bool:
			b.WriteString("false")
		case nil:
			b.WriteString("null")
		}
	}
	walk()
	return b.String()
}

// metricNames returns the sorted, de-duplicated sample names (with their
// label sets) of a Prometheus text exposition.
func metricNames(body []byte) []string {
	seen := make(map[string]bool)
	var names []string
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			name = line[:i]
		}
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}
