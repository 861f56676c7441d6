package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"complexobj"
	"complexobj/cobench"
	"complexobj/internal/server"
)

// driveFlags are the flags every drive test shares: an n = 60 extension
// the local path generates and the served path finds in the snapshot.
var driveFlags = []string{"-n", "60", "-buffer", "64", "-loops", "10", "-samples", "4"}

// cobenchRun runs cobench in-process with driveFlags plus args and returns
// its stdout.
func cobenchRun(t *testing.T, args ...string) (string, error) {
	t.Helper()
	fs := flag.NewFlagSet("cobench", flag.ContinueOnError)
	o := flags(fs)
	if err := fs.Parse(append(append([]string(nil), driveFlags...), args...)); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	err := run(o, &stdout, &stderr)
	t.Logf("cobench %s\n%s", strings.Join(args, " "), stderr.String())
	return stdout.String(), err
}

// serve starts an in-process coserve over a snapshot of the driveFlags
// extension — durable when walDir is set, seeded with SeedCommitDir — with
// wrap (if any) between the client and the server's handler.
func serve(t *testing.T, walDir string, wrap func(http.Handler) http.Handler) string {
	t.Helper()
	gen := cobench.DefaultConfig().WithN(60)
	var dbs []*complexobj.DB
	for _, k := range complexobj.AllModels() {
		db, err := complexobj.OpenLoaded(k, complexobj.Options{BufferPages: 64}, gen)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		dbs = append(dbs, db)
	}
	path := filepath.Join(t.TempDir(), "drive.codb")
	if err := complexobj.WriteSnapshot(path, gen, dbs...); err != nil {
		t.Fatal(err)
	}
	if walDir != "" {
		if err := complexobj.SeedCommitDir(walDir, dbs...); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := server.New(server.Config{Snapshot: path, BufferPages: 64, WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	hs := httptest.NewServer(h)
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return hs.URL
}

// readReport decodes a -report file as generic JSON, the way CI's Python
// checks read it.
func readReport(t *testing.T, path string) map[string]any {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestServedTablesMatchLocal: a closed-loop and an open-loop served table
// print the local table byte for byte, and each answered request is one
// latency observation.
func TestServedTablesMatchLocal(t *testing.T) {
	local, err := cobenchRun(t)
	if err != nil {
		t.Fatal(err)
	}
	url := serve(t, "", nil)
	for _, tc := range []struct {
		mode     string
		args     []string
		requests float64
	}{
		{"closed", []string{"-clients", "4", "-repeat", "2"}, 5 * 7 * 2},
		{"open", []string{"-rate", "500"}, 5 * 7},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "run.json")
			served, err := cobenchRun(t, append(tc.args, "-serve-url", url, "-report", out)...)
			if err != nil {
				t.Fatal(err)
			}
			if served != local {
				t.Errorf("served table differs from the local one:\n%s\nlocal:\n%s", served, local)
			}
			rep := readReport(t, out)
			if rep["mode"] != tc.mode || rep["requests"] != tc.requests {
				t.Errorf("report mode %v, requests %v; want %s, %v", rep["mode"], rep["requests"], tc.mode, tc.requests)
			}
			if lat := rep["latency"].(map[string]any); lat["count"] != tc.requests {
				t.Errorf("latency count %v for %v requests", lat["count"], tc.requests)
			}
		})
	}
}

// TestSoakReportSchema runs a two-step soak and applies CI's soak-smoke
// assertions to its report, including that the steps' requests sum to the
// run's.
func TestSoakReportSchema(t *testing.T) {
	url := serve(t, "", nil)
	out := filepath.Join(t.TempDir(), "soak.json")
	stdout, err := cobenchRun(t, "-serve-url", url, "-soak", "2s", "-soak-steps", "2", "-rate", "40", "-report", out)
	if err != nil {
		t.Fatal(err)
	}
	if stdout != "" {
		t.Errorf("a soak printed a table:\n%s", stdout)
	}
	rep := readReport(t, out)
	if rep["mode"] != "soak" || rep["requests"].(float64) <= 0 || rep["throughputRPS"].(float64) <= 0 {
		t.Fatalf("report head: %v", rep)
	}
	lat := rep["latency"].(map[string]any)
	for _, k := range []string{"count", "minMicros", "meanMicros", "maxMicros", "p50Micros", "p90Micros", "p99Micros", "p999Micros"} {
		if _, ok := lat[k]; !ok {
			t.Errorf("latency missing %s", k)
		}
	}
	if !(lat["p50Micros"].(float64) <= lat["p99Micros"].(float64) && lat["p99Micros"].(float64) <= lat["maxMicros"].(float64)) {
		t.Errorf("latency percentiles out of order: %v", lat)
	}
	soak := rep["soak"].(map[string]any)
	if soak["passed"] != true || soak["hardErrors"] != 0.0 || soak["serverDivergentCells"] != 0.0 || soak["clientDivergentCells"] != 0.0 {
		t.Errorf("soak gates: %v", soak)
	}
	if soak["rssGateSkipped"] != true && soak["rssGrowthBytes"].(float64) > soak["rssBoundBytes"].(float64) {
		t.Errorf("RSS gate: %v", soak)
	}
	steps := soak["steps"].([]any)
	if len(steps) != 2 {
		t.Fatalf("%d steps, want 2", len(steps))
	}
	var rates []float64
	var sum float64
	for _, s := range steps {
		rates = append(rates, s.(map[string]any)["rateRPS"].(float64))
		sum += s.(map[string]any)["requests"].(float64)
	}
	if rates[0] > rates[1] || rates[1] != 40 {
		t.Errorf("step rates %v, want ascending to 40", rates)
	}
	if sum != rep["requests"] {
		t.Errorf("steps answered %v requests, the run %v", sum, rep["requests"])
	}
}

// TestWriteModeReportsEveryMode drives -write-frac 0.5 against a durable
// server in each mode: the table still matches the local one, and every
// report carries commits, their latency (one observation per commit) and
// the WAL block — the soak's used to drop all three.
func TestWriteModeReportsEveryMode(t *testing.T) {
	local, err := cobenchRun(t)
	if err != nil {
		t.Fatal(err)
	}
	url := serve(t, t.TempDir(), nil)
	for _, tc := range []struct {
		mode string
		args []string
	}{
		{"closed", []string{"-clients", "4"}},
		{"open", []string{"-rate", "500"}},
		{"soak", []string{"-soak", "1s", "-soak-steps", "1", "-rate", "100"}},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "run.json")
			stdout, err := cobenchRun(t, append(tc.args, "-serve-url", url, "-write-frac", "0.5", "-report", out)...)
			if err != nil {
				t.Fatal(err)
			}
			if tc.mode != "soak" && stdout != local {
				t.Errorf("write-mode table differs from the local one:\n%s\nlocal:\n%s", stdout, local)
			}
			rep := readReport(t, out)
			commits, _ := rep["commits"].(float64)
			cl, _ := rep["commitLatency"].(map[string]any)
			if commits <= 0 || cl == nil || cl["count"] != commits {
				t.Errorf("commits %v, commitLatency %v", rep["commits"], rep["commitLatency"])
			}
			if wal, _ := rep["wal"].(map[string]any); wal == nil || wal["payloadBytes"].(float64) <= 0 {
				t.Errorf("wal block %v", rep["wal"])
			}
			if soak, ok := rep["soak"].(map[string]any); ok && (soak["passed"] != true || soak["ackedCommits"] != commits) {
				t.Errorf("soak write gate: %v", soak)
			}
		})
	}
}

// TestLostUpdateFailsRun: a server whose /info under-reports its commit
// counter — acknowledged commits it does not account for — fails the run.
func TestLostUpdateFailsRun(t *testing.T) {
	url := serve(t, t.TempDir(), func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/info" {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			var info server.InfoResponse
			if err := json.NewDecoder(rec.Body).Decode(&info); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			info.Durability.Commits = 0
			json.NewEncoder(w).Encode(&info)
		})
	})
	_, err := cobenchRun(t, "-serve-url", url, "-query", "3a", "-write-frac", "1")
	if err == nil || !strings.Contains(err.Error(), "lost updates") {
		t.Fatalf("run over an under-reporting server: %v, want a lost-update error", err)
	}
}

// TestServedTableDivergenceFails: when one cell answers its second request
// with other counters, a -repeat 2 table run fails with the client
// divergence error naming that cell instead of printing either answer.
func TestServedTableDivergenceFails(t *testing.T) {
	var answers atomic.Int64
	url := serve(t, "", func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			q := r.URL.Query()
			if r.URL.Path != "/run" || q.Get("model") != complexobj.DSM.String() || q.Get("query") != "2b" || answers.Add(1) != 2 {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			var rr server.RunResponse
			if err := json.NewDecoder(rec.Body).Decode(&rr); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			rr.Raw.BufferFixes++
			json.NewEncoder(w).Encode(&rr)
		})
	})
	stdout, err := cobenchRun(t, "-serve-url", url, "-repeat", "2", "-clients", "4")
	var div divergenceError
	if !errors.As(err, &div) || len(div) != 1 || div[0] != complexobj.DSM.String()+" 2b" {
		t.Fatalf("run with one divergent cell: %v, want a divergence error naming %s 2b", err, complexobj.DSM)
	}
	if stdout != "" {
		t.Errorf("a divergent run printed a table:\n%s", stdout)
	}
}
