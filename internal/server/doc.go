// Package server is the long-lived benchmark server: it opens one
// immutable complexobj.Base per served storage model from a .codb
// snapshot (mmap'ed read-only in place where the platform allows) and
// answers benchmark queries over HTTP/JSON, each on a copy-on-write view
// leased from the model's ViewPool. Command coserve wraps it; cobench
// -serve-url is the matching load generator, coshard (internal/router)
// the scatter-gather front over several of it.
//
// # Measurement contract
//
// A request runs exactly the batch execution path — the same
// workload.Runner over the same workload.View as DB.Run and the
// experiments suite — on a view with a private buffer pool, overlay and
// counters, reset to the pristine base between requests. A served
// (model, query, workload) cell is therefore bit-identical to the same
// cell of a serial batch table, however many requests run concurrently,
// whether or not the run commits, and on whichever backend of a sharded
// deployment it lands. The counters on the wire are the engine's own
// type (iostat.Stats, iostat.PerUnit): nothing is copied or renamed
// between the device and the payload. Everything else the server reports
// (latency, pools, WAL, faults) is observability beside that accounting.
//
// # Endpoints
//
//	GET  /run?model=M&query=Q[&loops=N][&samples=N][&seed=N][&commit=1]
//	          one query execution and its private counters. Waits for an
//	          admission slot, then for a view; 503 + Retry-After when the
//	          deadline (Config.RequestTimeout) ends either wait or the
//	          run, 421 + NotOwnedResponse when a sharded backend does not
//	          own the model, 500 (view quarantined) on a panic or fault.
//	          commit=1 (needs -wal) folds the run's mutations into the
//	          served base, acknowledged only after the WAL fsync.
//	GET  /stats   per-(model, query, workload) aggregates: count, per-run
//	          and summed counters, mean/max latency, and a divergent flag
//	          that must stay false (AggCell.Fold).
//	GET  /info    deployment identity, per-model base and pool state,
//	          resilience / durability / sharding blocks, latency summaries.
//	GET  /healthz liveness; "degraded" while the admission gate is full.
//	GET  /metrics the same state as Prometheus text.
//	POST /shards/acquire?shard=N[&segment=PATH], /shards/release?shard=N
//	          the backend half of a shard handoff (ownership.go); 409 when
//	          refused.
//
// # Files
//
//	server.go     Config, Server, New/Close, the route table
//	wire.go       every JSON payload type (declaration order is wire order)
//	              and WriteJSON, the one writer of them
//	run.go        /run: admit → lease → execute → commit → respond
//	stats.go      AggCell.Fold, SortCells, the aggregate map, /stats
//	ownership.go  the served-model record, shard resolution, acquire/release
//	introspect.go one state reading rendered as /info, /healthz, /metrics
//	metrics.go    per-cell latency histograms
//	runspec.go    the /run query-string contract shared with clients
//
// # What a request allocates
//
// In steady state a /run allocates nothing in this package or below it
// but the one-word *complexobj.View lease wrapper; the rest is net/http's.
// The spec is read off the raw query as substrings (ParseRunSpec);
// admission and the view lease take a free slot without waiting on the
// request context, whose Done channel only contention should make it
// allocate; the engine's own workload.Runner is re-armed, not rebuilt;
// every store read lends its result; and the payload lives in a pooled
// writer that encodes it into a reused buffer and sends it with one Write
// (WriteJSON, which coshard writes through too). The wrapper stays on
// purpose: a fresh one per lease is what keeps a stale handle — a
// duplicate Close racing a later request — from reaching a recycled
// engine. TestRunHandlerAllocs pins it; BenchmarkServeDrive gates it in
// CI.
//
// # A served model
//
// Each served model is one record (served): the shared base, the view
// pool over it and the mutex serializing its committing requests. Records
// live in one map under omu and are created and retired whole — at
// startup, by /shards/acquire and by /shards/release, all through
// openModelsLocked / closeModelLocked. Read-only or durable, a server
// maps each stored entry once: models stored in one entry — DSM and
// DASDBS-DSM, NSM and NSM+index — get bases of their own over one floor,
// each committing alone, and releasing one leaves the other serving. A
// request keeps the
// record it looked up after the unlock: views pin their base, a closed
// pool refuses new leases (503, which the router retries on the new
// owner).
//
// # Lock order
//
// admission slot → the model's commitMu (commit=1 only) → the pool's
// semaphore (inside AcquireContext), released in reverse. omu is read-held
// for map access only and never across a query or any of the above; the
// ownership endpoints take it exclusively. mu (the /stats aggregates) is
// innermost: held for one fold or one copy, with nothing acquired under
// it. The latency tables and the commit log lock themselves and call
// nothing back.
package server
