package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"complexobj"
	"complexobj/cobench"
	"complexobj/internal/server"
)

// genConfig is the extension every workload builds: the paper's own
// (1500 objects, generator seed 1993; the unit tests shrink it). The
// benchmark seed varies the requests, not the database: two seeds then
// differ in which objects they touch, not in how big the objects are, and
// that keeps run-to-run differences down to the host's.
func (c runConfig) genConfig() cobench.Config {
	gen := cobench.DefaultConfig()
	gen.N = c.Objects
	return gen
}

// serveEnv is a live served database: snapshot (and WAL directory) in a
// private temp dir, the server in-process behind a real loopback
// listener, and a pooled keep-alive client.
type serveEnv struct {
	dir      string
	snapshot string
	walDir   string // "" unless the workload arms the WAL
	srv      *server.Server
	base     string       // http://127.0.0.1:port
	unlisten func() error // nil once the listener is down
	client   *http.Client
}

// listen serves h on a loopback port. It returns the base URL and a
// function that closes the listener and its connections and waits for the
// serving goroutine to end.
func listen(h http.Handler) (base string, stop func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	stop = func() error {
		err := hs.Close()
		if serr := <-served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
			err = serr
		}
		return err
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// buildSnapshot generates the extension, loads the five storage models
// and writes the .codb snapshot (plus the seeded commit directory when
// walDir is set). It returns the generated stations and, while keep is
// set, the loaded databases (the caller closes them).
func buildSnapshot(tr *tracer, parent int, gen cobench.Config, path, walDir string, keep bool) ([]*cobench.Station, []*complexobj.DB, error) {
	var stations []*cobench.Station
	if err := tr.do("cobench.generate", parent, 0, func() (err error) {
		stations, err = cobench.Generate(gen)
		return err
	}); err != nil {
		return nil, nil, err
	}
	var dbs []*complexobj.DB
	closeAll := func() {
		for _, db := range dbs {
			db.Close()
		}
	}
	for _, k := range complexobj.AllModels() {
		db, err := complexobj.Open(k, complexobj.Options{})
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		dbs = append(dbs, db)
		if err := tr.do("store.load", parent, 0, func() error { return db.Load(stations) }); err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("load %s: %w", k, err)
		}
	}
	if err := tr.do("snapshot.write", parent, 0, func() error {
		return complexobj.WriteSnapshot(path, gen, dbs...)
	}); err != nil {
		closeAll()
		return nil, nil, err
	}
	if walDir != "" {
		if err := tr.do("commitlog.seed", parent, 0, func() error {
			return complexobj.SeedCommitDir(walDir, dbs...)
		}); err != nil {
			closeAll()
			return nil, nil, err
		}
	}
	if !keep {
		closeAll()
		dbs = nil
	}
	return stations, dbs, nil
}

// startServe performs one cold set-up in dir: generate → load five models
// → WriteSnapshot (→ SeedCommitDir) → server.New → first 200.
func startServe(tr *tracer, dir string, cfg runConfig, def workloadDef) (*serveEnv, error) {
	env := &serveEnv{dir: dir, snapshot: filepath.Join(dir, "bench.codb")}
	if def.WAL {
		env.walDir = filepath.Join(dir, "wal")
	}
	root := tr.begin("setup", 0, 0)
	err := env.start(tr, root, cfg, def)
	tr.end(root)
	if err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

func (e *serveEnv) start(tr *tracer, parent int, cfg runConfig, def workloadDef) error {
	if _, _, err := buildSnapshot(tr, parent, cfg.genConfig(), e.snapshot, e.walDir, false); err != nil {
		return err
	}
	sc := server.Config{Snapshot: e.snapshot}
	if e.walDir != "" {
		sc.WALDir = e.walDir
		sc.CheckpointBytes = checkpointBytes
	}
	if err := tr.do("server.new", parent, 0, func() (err error) {
		e.srv, err = server.New(sc)
		return err
	}); err != nil {
		return err
	}
	var err error
	if e.base, e.unlisten, err = listen(e.srv.Handler()); err != nil {
		return err
	}
	e.client = &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxIdleConns: 16, MaxIdleConnsPerHost: 16},
	}
	return tr.do("first_request", parent, 0, func() error {
		first := def.Cells[0].runSpec(cobench.DefaultWorkload().Seed)
		var buf bytes.Buffer
		return e.get("/run?"+first.Values().Encode(), &buf)
	})
}

// get fetches path into buf (reset first) and fails on a non-200.
func (e *serveEnv) get(path string, buf *bytes.Buffer) error {
	resp, err := e.client.Get(e.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(buf.Bytes()))
	}
	return nil
}

func (e *serveEnv) getJSON(path string, v any) error {
	var buf bytes.Buffer
	if err := e.get(path, &buf); err != nil {
		return err
	}
	return json.Unmarshal(buf.Bytes(), v)
}

// stopServer shuts the listener and the server down but keeps the temp
// dir, so the WAL can be reopened by the recovery referee.
func (e *serveEnv) stopServer() error {
	var first error
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	if e.unlisten != nil {
		// Every client has its reply by now, so nothing is cut short.
		first = e.unlisten()
		e.unlisten = nil
	}
	if e.srv != nil {
		if err := e.srv.Close(); err != nil && first == nil {
			first = err
		}
		e.srv = nil
	}
	return first
}

// close stops the server and removes the temp dir.
func (e *serveEnv) close() error {
	err := e.stopServer()
	if rerr := os.RemoveAll(e.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// Byte patterns the client loop checks each response body for. The full
// counter comparison is the server's own /stats divergence flag, read
// after the last round; in the loop only what is cheap is checked.
var (
	wantSupported = []byte(`"supported":true`)
	wantCommitted = []byte(`"committed":true`)
	// hasCommitSeq marks a commit that reached the WAL. A 3a op whose
	// root has no grand-children mutates nothing: the server acknowledges
	// it as committed without a sequence number and without a log batch.
	hasCommitSeq = []byte(`"commitSeq":`)
)

// serveClient is the per-client state of the closed loop.
type serveClient struct {
	buf bytes.Buffer
}

// servedWorkload drives one serve_* workload against its environment.
type servedWorkload struct {
	def     workloadDef
	env     *serveEnv
	seq     *opSequence
	urls    [][]string // [cell][slot] request URL
	clients []serveClient
	acked   atomic.Int64 // acknowledged commits that carried a WAL sequence
}

// newServedWorkload derives the op sequence of def from seed. For the
// committing workload the seed pool holds only seeds whose op mutates
// something: query 3a picks its root object from the workload seed, and
// a root without grand-children updates nothing, which the server
// acknowledges without logging a batch. How many of those a pool happens
// to draw would otherwise move every per-op figure of the run by a few
// percent with the seed; with them left out, every op is a real commit.
func newServedWorkload(def workloadDef, env *serveEnv, seed uint64) (*servedWorkload, error) {
	var accept func(uint64) (bool, error)
	if def.WAL {
		accept = env.mutates
	}
	seq, err := newOpSequence(seed, len(def.Cells), accept)
	if err != nil {
		return nil, err
	}
	w := &servedWorkload{
		def:     def,
		env:     env,
		seq:     seq,
		clients: make([]serveClient, def.Clients),
	}
	w.urls = make([][]string, len(def.Cells))
	for c, cl := range def.Cells {
		w.urls[c] = make([]string, seedPool)
		for s := range w.urls[c] {
			w.urls[c][s] = env.base + "/run?" + cl.runSpec(w.seq.pool[s]).Values().Encode()
		}
	}
	return w, nil
}

// mutates reports whether query 3a under workloadSeed writes any page,
// by running it once without commit (the update is discarded). The root
// object depends on the seed alone, so one model answers for all five.
func (e *serveEnv) mutates(workloadSeed uint64) (bool, error) {
	spec := cell{Model: complexobj.DSM, Query: cobench.Q3a, Samples: 1}.runSpec(workloadSeed)
	var resp server.RunResponse
	if err := e.getJSON("/run?"+spec.Values().Encode(), &resp); err != nil {
		return false, err
	}
	return resp.Raw.PagesWritten > 0, nil
}

// url returns the request URL of op i.
func (w *servedWorkload) url(i int) string { return w.urls[i%len(w.def.Cells)][w.seq.slot(i)] }

// round runs ops first..first+n-1 as one closed-loop round.
func (w *servedWorkload) round(first, n int, lat []int64) roundStats {
	return runRound(first, n, w.def.Clients, lat, w.do)
}

// do issues op i and checks the response: 200, supported, and — for a
// committing op — acknowledged.
func (w *servedWorkload) do(client, i int) bool {
	c := &w.clients[client]
	resp, err := w.env.client.Get(w.url(i))
	if err != nil {
		return false
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !bytes.Contains(c.buf.Bytes(), wantSupported) {
		return false
	}
	if w.def.WAL {
		if !bytes.Contains(c.buf.Bytes(), wantCommitted) {
			return false
		}
		if bytes.Contains(c.buf.Bytes(), hasCommitSeq) {
			w.acked.Add(1)
		}
	}
	return true
}
