// Command coserve is the long-lived benchmark server: it loads one shared
// base per storage model from a cogen-built .codb snapshot (mmap'ed
// read-only in place where the platform allows) and serves benchmark
// query requests over HTTP/JSON, each on a throwaway copy-on-write view
// from a bounded per-model pool.
//
// Usage:
//
//	coserve -db bench.codb [-addr :8077] [-buffer 1200] [-views 8]
//	        [-model all] [-loops 300] [-samples 40] [-seed 1993]
//	        [-max-inflight 0] [-request-timeout 0] [-faults SPEC]
//	        [-wal DIR] [-checkpoint-mb 64]
//	        [-shard-map bench.shards.json] [-shards 0,1]
//
// Endpoints: /run, /stats, /info, /healthz, /metrics (see
// internal/server; /metrics is Prometheus text exposition — serving
// counters, view-pool occupancy, process memory and per-cell latency
// split into queue wait and service time; scraping it never moves a
// /stats counter). Drive it with cobench -serve-url; the served counters
// are bit-identical to the local batch run with the same flags.
//
// -max-inflight bounds admitted requests across every model (0: twice
// the summed view bound, negative: unbounded) and -request-timeout
// deadlines each request end to end; beyond either budget the server
// degrades gracefully with 503 + Retry-After instead of queueing without
// bound. -faults arms a seeded fault-injection schedule under every view
// engine (see complexobj.ParseFaultPlan for the grammar) — injected
// faults surface as structured errors and never alter the counters of
// successful responses.
//
// -wal DIR arms the durable commit path: served bases open from the
// directory's per-model checkpoints (<slug>.codb; the -db snapshot seeds
// the first start),
// the write-ahead log replays on startup, and /run requests carrying
// commit=1 fold their update-query mutations into the served base — the
// response is written only after the fsync acknowledged the batch. A
// kill -9 at any point recovers to exactly the last acknowledged commit.
// -checkpoint-mb compacts the log whenever it outgrows that size (0:
// never). Read-path counters are unaffected: a -wal server measures
// bit-identically to a read-only one.
//
// -shard-map makes the process one backend of a scale-out deployment
// (cogen -split built the map and the per-shard .codb segments): it
// serves only the models its shards own, out of their segments, and
// rejects out-of-shard models with 421 Misdirected Request — the signal
// the coshard router re-routes on. -shards picks the owned shard IDs
// (default: all of them); ownership moves at runtime through POST
// /shards/acquire and /shards/release, which is how a segment hands off
// between two live backends without copying a byte. Counters stay
// bit-identical to unsharded serving: sharding partitions the model set,
// and no query crosses models.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"complexobj"
	"complexobj/internal/server"
)

func main() {
	var (
		dbPath     = flag.String("db", "", "cogen-built .codb snapshot to serve (required)")
		addr       = flag.String("addr", ":8077", "listen address")
		buffer     = flag.Int("buffer", 1200, "buffer pool pages per view")
		views      = flag.Int("views", 8, "max concurrent views (requests) per model")
		model      = flag.String("model", "all", "served models: all, or one of dsm, ddsm, nsm, nsmx, dnsm")
		loops      = flag.Int("loops", 300, "default loops for queries 2b/3b")
		samples    = flag.Int("samples", 40, "default samples for single-shot queries")
		seed       = flag.Uint64("seed", 1993, "default workload seed")
		maxInFl    = flag.Int("max-inflight", 0, "server-wide admitted-request bound (0: 2x the summed view bound, <0: unbounded)")
		reqTimeout = flag.Duration("request-timeout", 0, "per-request deadline across admission, view acquire and execution (0: none)")
		faults     = flag.String("faults", "", "fault-injection schedule for every view engine, e.g. seed=7,read=0.02,latency=0.05:2ms")
		walDir     = flag.String("wal", "", "write-ahead-log directory arming durable commits (empty: read-only serving)")
		ckptMB     = flag.Int64("checkpoint-mb", 64, "checkpoint the write-ahead log when it exceeds this many MiB (0: never; needs -wal)")
		shardMap   = flag.String("shard-map", "", "shard-map file (cogen -split) turning the process into one scale-out backend")
		shards     = flag.String("shards", "", "comma-separated shard IDs owned at startup (empty with -shard-map: all)")
	)
	flag.Parse()
	if err := run(*dbPath, *addr, *buffer, *views, *model, *loops, *samples, *seed, *maxInFl, *reqTimeout, *faults, *walDir, *ckptMB, *shardMap, *shards); err != nil {
		fmt.Fprintln(os.Stderr, "coserve:", err)
		os.Exit(1)
	}
}

func run(dbPath, addr string, buffer, views int, model string, loops, samples int, seed uint64,
	maxInflight int, reqTimeout time.Duration, faults, walDir string, ckptMB int64, shardMap, shards string) error {
	if dbPath == "" && shardMap == "" {
		return fmt.Errorf("-db is required (build one with: cogen -db bench.codb)")
	}
	plan, err := complexobj.ParseFaultPlan(faults)
	if err != nil {
		return err
	}
	if ckptMB < 0 {
		return fmt.Errorf("-checkpoint-mb %d is negative", ckptMB)
	}
	cfg := server.Config{
		Snapshot:        dbPath,
		BufferPages:     buffer,
		MaxViews:        views,
		MaxInflight:     maxInflight,
		RequestTimeout:  reqTimeout,
		Faults:          plan,
		WALDir:          walDir,
		CheckpointBytes: ckptMB << 20,
		ShardMap:        shardMap,
	}
	cfg.Workload.Loops = loops
	cfg.Workload.Samples = samples
	cfg.Workload.Seed = seed
	if model != "all" {
		k, err := complexobj.ModelByName(model)
		if err != nil {
			return err
		}
		cfg.Models = []complexobj.ModelKind{k}
	}
	if shards != "" {
		if shardMap == "" {
			return fmt.Errorf("-shards needs -shard-map")
		}
		for _, f := range strings.Split(shards, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return fmt.Errorf("-shards: bad shard ID %q", f)
			}
			cfg.Shards = append(cfg.Shards, id)
		}
	}

	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()

	info := srv.Info()
	source := dbPath
	if shardMap != "" {
		source = shardMap
	}
	fmt.Printf("coserve: serving %s (N=%d, seed=%d, page %d B) on %s\n",
		source, info.Gen.N, info.Gen.Seed, info.PageSize, addr)
	// Summed per model: kinds that share a base (one stored layout)
	// count its arena once each.
	fmt.Printf("coserve: %d models, %.1f MiB of arenas summed per model, %d views x %d buffer pages per model\n",
		len(info.Models), float64(srv.TotalArenaBytes())/(1<<20), views, buffer)
	if shardMap != "" {
		fmt.Printf("coserve: sharded backend, shards %s of %s\n", shardString(shards), shardMap)
	}
	if maxInflight >= 0 || reqTimeout > 0 {
		fmt.Printf("coserve: admission bound %s, request timeout %s\n",
			boundString(maxInflight), timeoutString(reqTimeout))
	}
	if plan != nil {
		fmt.Printf("coserve: fault injection armed: %s\n", plan)
	}
	if walDir != "" {
		fmt.Printf("coserve: durable commits armed: wal %s, checkpoint at %d MiB\n", walDir, ckptMB)
	}

	hs := &http.Server{Addr: addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("coserve: %v, shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	}
	return nil
}

// boundString renders the -max-inflight value ("auto" for 0, which the
// server resolves to twice the summed view bound).
func boundString(n int) string {
	if n == 0 {
		return "auto"
	}
	return strconv.Itoa(n)
}

// shardString renders the -shards value ("all" for empty).
func shardString(s string) string {
	if s == "" {
		return "all"
	}
	return s
}

// timeoutString renders the -request-timeout value ("none" for 0).
func timeoutString(d time.Duration) string {
	if d <= 0 {
		return "none"
	}
	return d.String()
}
