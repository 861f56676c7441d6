// Package shard holds the scale-out partition map: which storage models
// (the snapshot's model address table) each serving shard owns, which
// backend serves it, and which .codb segment file holds its data.
//
// The map is deliberately tiny and dependency-free — a versioned JSON
// document — because every participant of a deployment reads it: cogen
// writes it next to the per-shard segments it splits, coserve loads it to
// learn its model subset (rejecting out-of-shard requests with 421),
// coshard routes /run requests by it and scatter-gathers /stats across
// its backends. A rebalance is an edit of the map file (it is meant to be
// edited by hand) that moves models between shards and bumps the version,
// so every party can tell a stale map from the current one.
//
// Partitioning is by storage model. The paper's physical-I/O accounting
// is strictly per object space — no query ever crosses storage models —
// so a model-granular split preserves every counter bit-identically: each
// backend measures exactly what a single node would have measured for the
// models it owns, and the union of the shards' /stats cells is the single
// node's cell set. Sharding therefore lives entirely outside the paper's
// counted I/O (see docs/PAPER_MAP.md).
//
// Two partition strategies exist: "hash" (FNV-1a of the model name modulo
// the shard count — stable under reordering of the model list) and
// "range" (contiguous even slices in the given model order). Both are
// deterministic: the same inputs produce the same map, so independently
// split deployments agree.
package shard
