// Package workload drives the seven benchmark queries of the paper's §2.2
// against a storage model and collects the I/O statistics that Tables 4-7
// and Figures 5-6 report.
//
// Accounting conventions (matching §5.1):
//
//   - single-shot queries (1a, 1b, 2a, 3a) run on a cold cache and are
//     averaged over a sample of objects (the paper measured one hand-picked
//     "average" object; sampling removes the arbitrariness);
//   - looped queries (2b, 3b) run Loops consecutive navigation loops on a
//     warm cache and normalize per loop;
//   - the scan query (1c) runs once and normalizes per object;
//   - updates are written back at flush ("database disconnect") or on
//     buffer overflow, both inside the measurement window.
//
// The Runner executes against store.Model, the query surface stated
// there, rather than a concrete model: batch databases (complexobj.DB),
// the request-scoped copy-on-write views the benchmark server hands out
// (store.View, which is its model) and the experiments suite all drive
// the same Runner, which is what makes served counters bit-identical to
// the batch tables by construction.
package workload
