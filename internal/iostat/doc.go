// Package iostat collects the I/O and buffer statistics that the paper
// reports: physical page reads/writes (Table 4), I/O calls (Table 5) and
// buffer fixes (Table 6). The counters are deliberately dumb integers so
// that the storage engine can update them from hot paths without locking
// overhead dominating the simulation; the engine's one owner is the only
// goroutine that touches them.
//
// Concurrency contract: a Stats value is owned by exactly one engine
// (simulated device or buffer pool), which updates and reads it without
// any lock, because an engine belongs to one goroutine at a time
// (internal/disk, "Ownership"). The parallel experiment
// harness relies on this per-engine ownership instead of atomic counters:
// every (model, query) worker owns a private device + pool, so counters
// are never shared across goroutines, hot-path increments stay plain adds,
// and the measured numbers are bit-identical to a serial run (verified by
// `go test -race` and the determinism tests in the experiments package).
// Stats values returned from snapshot methods are plain copies and may be
// freely passed between goroutines.
package iostat
