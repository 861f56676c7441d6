package server

import (
	"testing"

	"complexobj"
	"complexobj/cobench"
)

// TestRunSpecRoundTrip pins the client/server wire contract: a spec built
// for a cell survives the URL encoding and resolves back to the exact
// model, query and workload the client asked for.
func TestRunSpecRoundTrip(t *testing.T) {
	w := cobench.Workload{Loops: 7, Samples: 120, Seed: 42}
	spec := RunSpecFor(complexobj.DASDBSNSM, cobench.Q2b, w)
	parsed := ParseRunSpec(spec.Values().Encode())
	if parsed != spec {
		t.Fatalf("Values/ParseRunSpec round trip: %+v != %+v", parsed, spec)
	}
	kind, q, got, err := parsed.Resolve(cobench.Workload{})
	if err != nil {
		t.Fatal(err)
	}
	if kind != complexobj.DASDBSNSM || q != cobench.Q2b || got != w {
		t.Errorf("resolved (%v, %v, %+v), want (%v, %v, %+v)",
			kind, q, got, complexobj.DASDBSNSM, cobench.Q2b, w)
	}
}

// TestRunSpecDefaultsAndErrors pins default fall-through for omitted
// fields and the validation error strings the HTTP layer surfaces.
func TestRunSpecDefaultsAndErrors(t *testing.T) {
	defaults := cobench.Workload{Loops: 3, Samples: 50, Seed: 9}
	spec := RunSpec{Model: "dnsm", Query: "2b"}
	if enc := spec.Values().Encode(); enc != "model=dnsm&query=2b" {
		t.Errorf("empty workload fields leak into the wire form: %q", enc)
	}
	_, _, w, err := spec.Resolve(defaults)
	if err != nil {
		t.Fatal(err)
	}
	if w != defaults {
		t.Errorf("omitted fields resolved to %+v, want defaults %+v", w, defaults)
	}
	for _, tc := range []struct {
		spec RunSpec
		want string
	}{
		{RunSpec{Model: "dnsm", Query: "9z"}, `unknown query "9z"`},
		{RunSpec{Model: "dnsm", Query: "2b", Loops: "x"}, `bad loops "x"`},
		{RunSpec{Model: "dnsm", Query: "2b", Samples: "-1"}, `bad samples "-1"`},
		{RunSpec{Model: "dnsm", Query: "2b", Seed: "-1"}, `bad seed "-1"`},
	} {
		_, _, _, err := tc.spec.Resolve(defaults)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%+v: error %v, want %q", tc.spec, err, tc.want)
		}
	}
}
