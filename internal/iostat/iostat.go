package iostat

import "fmt"

// Stats is the full set of counters maintained by a database engine.
// PagesRead/PagesWritten count page transfers between the simulated disk
// and the buffer pool; ReadCalls/WriteCalls count contiguous-run transfer
// operations (the paper's "I/O calls"); BufferFixes/BufferHits count
// buffer pool fixes and the subset of fixes satisfied without a disk read.
//
// This is the one declaration of the measurement: the facade
// (complexobj.Stats) and the served wire (server.Counters, the "raw" and
// "rawSum" objects of /run and /stats) are aliases of it, so a counter
// added here reaches every surface and there is nothing to copy between
// them. The JSON tags are the wire names, in wire order.
type Stats struct {
	PagesRead    int64 `json:"pagesRead"`
	PagesWritten int64 `json:"pagesWritten"`
	ReadCalls    int64 `json:"readCalls"`
	WriteCalls   int64 `json:"writeCalls"`
	BufferFixes  int64 `json:"bufferFixes"`
	BufferHits   int64 `json:"bufferHits"`
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.PagesRead += o.PagesRead
	s.PagesWritten += o.PagesWritten
	s.ReadCalls += o.ReadCalls
	s.WriteCalls += o.WriteCalls
	s.BufferFixes += o.BufferFixes
	s.BufferHits += o.BufferHits
}

// Pages returns the total number of pages transferred in either direction,
// the paper's X_{I/O pages}.
func (s Stats) Pages() int64 { return s.PagesRead + s.PagesWritten }

// Calls returns the total number of I/O calls in either direction, the
// paper's X_{I/O calls}.
func (s Stats) Calls() int64 { return s.ReadCalls + s.WriteCalls }

// Reset zeroes every counter.
func (s *Stats) Reset() { *s = Stats{} }

// String renders the counters in a compact single line, convenient for CLIs.
func (s Stats) String() string {
	return fmt.Sprintf("pagesR=%d pagesW=%d callsR=%d callsW=%d fixes=%d hits=%d",
		s.PagesRead, s.PagesWritten, s.ReadCalls, s.WriteCalls, s.BufferFixes, s.BufferHits)
}

// PerUnit is a Stats scaled by a unit count (per object, per loop), the
// normalization of Equation 1 and Tables 4-6. Like Stats it is declared
// once: query results (complexobj.QueryResult, experiments.Measured)
// embed it and the served wire's "perUnit" object is an alias of it, with
// the JSON tags carrying the wire names in wire order.
type PerUnit struct {
	Pages        float64 `json:"pages"`
	PagesRead    float64 `json:"pagesRead"`
	PagesWritten float64 `json:"pagesWritten"`
	Calls        float64 `json:"calls"`
	ReadCalls    float64 `json:"readCalls"`
	WriteCalls   float64 `json:"writeCalls"`
	Fixes        float64 `json:"fixes"`
	Hits         float64 `json:"hits"`
}

// Normalize divides every counter by units. It panics on units <= 0 because
// a non-positive normalization always indicates a harness bug.
func (s Stats) Normalize(units float64) PerUnit {
	if units <= 0 {
		panic("iostat: Normalize with non-positive unit count")
	}
	return PerUnit{
		Pages:        float64(s.Pages()) / units,
		PagesRead:    float64(s.PagesRead) / units,
		PagesWritten: float64(s.PagesWritten) / units,
		Calls:        float64(s.Calls()) / units,
		ReadCalls:    float64(s.ReadCalls) / units,
		WriteCalls:   float64(s.WriteCalls) / units,
		Fixes:        float64(s.BufferFixes) / units,
		Hits:         float64(s.BufferHits) / units,
	}
}
