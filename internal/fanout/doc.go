// Package fanout provides the bounded, order-preserving worker pool shared
// by the experiment harness and the CLI drivers: n independent jobs are
// handed to at most `workers` goroutines, callers write results into
// caller-owned slices at the job index, and the first error wins.
//
// # Determinism guarantee
//
// Run contributes nothing nondeterministic beyond scheduling: jobs are
// dispatched in index order, each job runs exactly once, and results land
// wherever the caller's fn(i) writes them. The experiment harness builds
// its byte-identical-to-serial guarantee on top of that by making every
// job self-contained — each job owns a private engine (buffer pool +
// copy-on-write view of a shared immutable base), every
// measurement starts from a cold cache with reset counters, and no job
// reads another job's output. Under those conditions the assembled result
// slice is independent of the worker count and of interleaving, which the
// determinism tests in the experiments package pin for the matrix and
// every sweep.
package fanout
