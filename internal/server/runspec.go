package server

import (
	"fmt"
	"net/url"
	"slices"
	"strconv"
	"strings"

	"complexobj"
	"complexobj/cobench"
)

// RunSpec is the wire form of one /run request: the query-string
// parameters the server validates and cobench's served client sends.
// Fields hold the literal parameter strings; an empty field means "use
// the server default" on the optional workload knobs. Keeping one type on
// both sides of the wire guarantees the client can only ask for what the
// server parses, and vice versa.
type RunSpec struct {
	Model   string
	Query   string
	Loops   string
	Samples string
	Seed    string
	// Commit requests that the run's mutations be committed into the
	// served base ("1"/"true"; empty or "0"/"false" discards them, the
	// classic measurement behavior). Commit is not part of the
	// aggregation key: a committed run measures bit-identically to a
	// discarded one (the update stamps are fixed-size, the commit happens
	// after measurement), so both land in the same /stats cell.
	Commit string
}

// RunSpecFor builds the fully-specified wire form of one measurement
// cell, the request shape cobench's -serve-url client issues.
func RunSpecFor(k complexobj.ModelKind, q cobench.Query, w cobench.Workload) RunSpec {
	return RunSpec{
		Model:   k.String(),
		Query:   q.String(),
		Loops:   strconv.Itoa(w.Loops),
		Samples: strconv.Itoa(w.Samples),
		Seed:    strconv.FormatUint(w.Seed, 10),
	}
}

// runSpecKeys are the query parameters of a RunSpec, in the order of
// fields.
var runSpecKeys = [...]string{"model", "query", "loops", "samples", "seed", "commit"}

// fields lists the spec's fields in the order of runSpecKeys.
func (s *RunSpec) fields() [len(runSpecKeys)]*string {
	return [...]*string{&s.Model, &s.Query, &s.Loops, &s.Samples, &s.Seed, &s.Commit}
}

// ParseRunSpec reads the spec straight off a raw query string and gives
// what url.ParseQuery followed by Values.Get gives, without the map: the
// first value of a key wins, a pair holding a ';' or a bad escape is
// dropped, unknown keys are ignored. Only a key or value holding '%' or
// '+' is unescaped; anything else is a substring of raw, so a plain
// request parses without allocating.
func ParseRunSpec(raw string) RunSpec {
	var s RunSpec
	fields := s.fields()
	var seen [len(runSpecKeys)]bool
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		key, val, _ := strings.Cut(pair, "=")
		key, ok := queryUnescape(key)
		if !ok {
			continue
		}
		i := slices.Index(runSpecKeys[:], key)
		if i < 0 || seen[i] {
			continue
		}
		if val, ok = queryUnescape(val); ok {
			*fields[i], seen[i] = val, true
		}
	}
	return s
}

// queryUnescape is url.QueryUnescape, called only when s holds an escape.
func queryUnescape(s string) (string, bool) {
	if !strings.ContainsAny(s, "%+") {
		return s, true
	}
	u, err := url.QueryUnescape(s)
	return u, err == nil
}

// Values renders the spec as URL query parameters; empty fields are
// omitted so defaults stay the server's business.
func (s RunSpec) Values() url.Values {
	v := url.Values{}
	for i, f := range s.fields() {
		if *f != "" {
			v.Set(runSpecKeys[i], *f)
		}
	}
	return v
}

// CommitRequested parses the commit flag (empty means false).
func (s RunSpec) CommitRequested() (bool, error) {
	switch s.Commit {
	case "", "0", "false":
		return false, nil
	case "1", "true":
		return true, nil
	default:
		return false, fmt.Errorf("bad commit %q", s.Commit)
	}
}

// Resolve validates the spec over the given workload defaults: the model
// and query must name existing ones, the workload fields must parse as
// non-negative numbers when present.
func (s RunSpec) Resolve(defaults cobench.Workload) (complexobj.ModelKind, cobench.Query, cobench.Workload, error) {
	w := defaults
	kind, err := complexobj.ModelByName(s.Model)
	if err != nil {
		return kind, 0, w, err
	}
	q, ok := cobench.QueryByName(s.Query)
	if !ok {
		return kind, q, w, fmt.Errorf("unknown query %q", s.Query)
	}
	if s.Loops != "" {
		n, err := strconv.Atoi(s.Loops)
		if err != nil || n < 0 {
			return kind, q, w, fmt.Errorf("bad loops %q", s.Loops)
		}
		w.Loops = n
	}
	if s.Samples != "" {
		n, err := strconv.Atoi(s.Samples)
		if err != nil || n < 0 {
			return kind, q, w, fmt.Errorf("bad samples %q", s.Samples)
		}
		w.Samples = n
	}
	if s.Seed != "" {
		n, err := strconv.ParseUint(s.Seed, 10, 64)
		if err != nil {
			return kind, q, w, fmt.Errorf("bad seed %q", s.Seed)
		}
		w.Seed = n
	}
	return kind, q, w, nil
}
