package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// side of the call. Spans of one op share Op; Parent is the ID of the
// span that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so measured code paths call it unconditionally. It is used
// from one goroutine at a time (the traced pass is single-client).
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID, for use as a parent and for end.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	return t.add(name, parent, op, int64(time.Since(t.epoch)), 0)
}

// end closes the span begin opened.
func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id-1].End = int64(time.Since(t.epoch))
	}
}

// do times fn as a span named name under parent.
func (t *tracer) do(name string, parent, op int, fn func() error) error {
	id := t.begin(name, parent, op)
	err := fn()
	t.end(id)
	return err
}

// add records a span.
func (t *tracer) add(name string, parent, op int, start, end int64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return id
}

// rebase records a span measured elsewhere in time as if it had started
// `offset` into its parent. The depth replay runs one op once per depth,
// so the deeper executions happen after the shallower one finished;
// re-basing nests them inside it again, and an op reads as one tree whose
// self times are the differences between depths.
func (t *tracer) rebase(name string, parent, op int, offset, dur int64) int {
	p := t.spans[parent-1]
	return t.add(name, parent, op, p.Start+offset, p.Start+offset+dur)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover (children may overlap each
// other, and are clipped to the parent).
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		var covered int64
		edge := s.Start // everything before edge is already accounted for
		for _, k := range ks {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// byName groups a per-span quantity by span name.
func byName(spans []span, val func(span) int64) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(val(s)))
	}
	return out
}

// write stores the environment, the per-layer figures and the spans as
// JSON.
func (t *tracer) write(path string, env environment, layers map[string]float64, eq equation) error {
	data, err := json.Marshal(struct {
		Note     string             `json:"note"`
		Env      environment        `json:"environment"`
		Layers   map[string]float64 `json:"per_layer_metrics"`
		Equation equation           `json:"equation_1_on_time"`
		Spans    []span             `json:"spans"`
	}{
		Note:     "times in ns since the traced pass began; spans sharing `op` belong to one op; see bench/README.md, Reading a trace",
		Env:      env,
		Layers:   layers,
		Equation: eq,
		Spans:    t.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
