// Package faultdisk injects deterministic, seeded I/O misbehavior under
// the simulated device: it wraps any disk.Backend in a fault schedule of
// transient and permanent errors, added latency, short reads and torn
// writes, at page granularity and with per-op counters of everything it
// inflicted.
//
// The wrapper exists to prove the system's robustness claim, which is a
// sharpening of the paper's measurement contract: the I/O counters the
// tables report must stay bit-identical — and the process must stay up —
// while the storage substrate misbehaves. Injection happens strictly
// below the device's accounting (device counters increment only after a
// fully successful page transfer), so a retried transient fault is
// invisible in the paper-visible statistics and a failed operation
// surfaces as an error, never as silently corrupted counters.
//
// One Injector owns one schedule (see ParseSpec for the textual grammar)
// and wraps every engine of a run; wrapped backends share the injector's
// counters but draw from per-engine pseudo-random streams keyed by
// (seed, wrap order), so the same spec and seed reproduce the same fault
// sequence. The wrapper never lends out a page the schedule applies to
// (keeping the device on the copying path where faults can fire) and
// exposes Unwrap so copy-on-write affordances keep working.
package faultdisk
