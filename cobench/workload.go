package cobench

import "fmt"

// Query identifies one of the seven benchmark queries of the paper's §2.2.
type Query int

const (
	// Q1a retrieves a single Station given its address (OID).
	Q1a Query = iota
	// Q1b retrieves a single Station given its key value.
	Q1b
	// Q1c retrieves all Stations; results are normalized per object.
	Q1c
	// Q2a navigates once: a random station, its children (≈4.1) and the
	// root records of its grand-children (≈16.7).
	Q2a
	// Q2b runs the navigation 300 times consecutively; results are
	// normalized per loop ("almost all objects are referred to at least
	// once, and the probability of buffer hits or buffer overflow will
	// increase").
	Q2b
	// Q3a is Q2a followed by an update of the grand-children root records.
	Q3a
	// Q3b is Q2b with an update of the grand-children at the end of each
	// loop.
	Q3b
)

// AllQueries lists the benchmark queries in paper order.
func AllQueries() []Query { return []Query{Q1a, Q1b, Q1c, Q2a, Q2b, Q3a, Q3b} }

// QueryByName resolves a query by its printed name ("1a" … "3b") — the
// shared lookup for every surface that accepts query names (CLI flags,
// server requests), so they cannot drift.
func QueryByName(name string) (Query, bool) {
	for _, q := range AllQueries() {
		if q.String() == name {
			return q, true
		}
	}
	return 0, false
}

// String implements fmt.Stringer.
func (q Query) String() string {
	switch q {
	case Q1a:
		return "1a"
	case Q1b:
		return "1b"
	case Q1c:
		return "1c"
	case Q2a:
		return "2a"
	case Q2b:
		return "2b"
	case Q3a:
		return "3a"
	case Q3b:
		return "3b"
	default:
		return fmt.Sprintf("Query(%d)", int(q))
	}
}

// Updates reports whether the query writes (query family 3).
func (q Query) Updates() bool { return q == Q3a || q == Q3b }

// Workload fixes the execution parameters of the benchmark driver.
type Workload struct {
	// Loops is the number of consecutive navigation loops for Q2b/Q3b
	// (paper: 300 for the 1500-object extension; the Figure 6 sweep uses
	// N/5 so that "about the same percentage of the total number of
	// objects is retrieved for each database size").
	Loops int
	// Samples is how many independent cold-cache repetitions the
	// single-shot queries (1a, 1b, 2a, 3a) are averaged over. The paper
	// measured a single hand-picked "average" object; averaging over a
	// sample removes the arbitrariness while preserving the metric.
	Samples int
	// Seed drives the random object selections of queries 2 and 3.
	Seed uint64
}

// DefaultWorkload mirrors the paper's run parameters.
func DefaultWorkload() Workload { return Workload{Loops: 300, Samples: 40, Seed: 42} }

// LoopsFor returns the loop count for a database of n objects, following
// the Figure 6 convention Loops = n/5.
func LoopsFor(n int) int {
	l := n / 5
	if l < 1 {
		l = 1
	}
	return l
}
