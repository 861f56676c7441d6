package server

import (
	"net/url"
	"testing"

	"complexobj/cobench"
)

// FuzzRunSpecResolve fuzzes the /run wire surface: arbitrary parameter
// strings must never panic Resolve, the wire round-trip must be exact
// (what the client encodes is what the server parses), and any spec
// Resolve accepts must re-encode through RunSpecFor into a spec that
// resolves to the identical (model, query, workload) — the property that
// keeps cobench's served client and the server's validator in lock-step.
func FuzzRunSpecResolve(f *testing.F) {
	f.Add("DSM", "2b", "15", "5", "1993")
	f.Add("NSM", "1a", "", "", "")
	f.Add("dsm", "3b", "0", "0", "0")
	f.Add("D-DSM", "1c", "300", "40", "18446744073709551615")
	f.Add("nope", "2b", "15", "5", "7")
	f.Add("DSM", "9z", "15", "5", "7")
	f.Add("DSM", "2b", "-1", "5", "7")
	f.Add("DSM", "2b", "1e3", "5", "7")
	f.Add("DSM", "2b", "15", "five", "7")
	f.Add("DSM", "2b", "15", "5", "-7")
	f.Add("", "", "", "", "")
	f.Add("DSM\x00", "2b\n", " 15", "5 ", "\t7")
	f.Fuzz(func(t *testing.T, model, query, loops, samples, seed string) {
		spec := RunSpec{Model: model, Query: query, Loops: loops, Samples: samples, Seed: seed}

		// Wire round-trip: encoding to a query string and parsing it back
		// is lossless for every field (empty fields are omitted and read
		// back empty).
		if back := ParseRunSpec(spec.Values().Encode()); back != spec {
			t.Fatalf("encoded round-trip changed the spec:\nsent %+v\ngot  %+v", spec, back)
		}

		defaults := cobench.Workload{Loops: 300, Samples: 40, Seed: 1993}
		k, q, w, err := spec.Resolve(defaults)
		if err != nil {
			return // rejected input: the only contract is "no panic"
		}
		// Re-encoding the resolved cell must resolve identically — the
		// exact path cobench's served client drives.
		k2, q2, w2, err := RunSpecFor(k, q, w).Resolve(defaults)
		if err != nil {
			t.Fatalf("Resolve ok for %+v, but the re-encoded spec fails: %v", spec, err)
		}
		if k2 != k || q2 != q || w2 != w {
			t.Fatalf("re-encoded spec resolves differently:\nfirst  %v %v %+v\nsecond %v %v %+v", k, q, w, k2, q2, w2)
		}
	})
}

// FuzzParseRunSpec holds ParseRunSpec to the map path it replaced, kept
// here as the oracle: url.ParseQuery, then the first value of each key.
func FuzzParseRunSpec(f *testing.F) {
	for _, raw := range []string{
		"model=DSM&query=2b&loops=15&samples=5&seed=1993&commit=1",
		"model=DSM;query=2b", // a ';' drops the pair
		"query=2b&model=DSM;x=1&model=NSM",
		"model=%zz&model=DSM", // a bad escape drops the pair
		"seed=7%&seed=8",
		"model=DASDBS%2DNSM&query=1+a", // '+' is a space
		"mo%64el=nsm&%71uery=2a",       // escaped keys
		"seed=7&seed=9",                // the first value wins
		"model=&model=DSM",             // even an empty one
		"=DSM&&model&query",            // empty keys, keys with no '='
		"model=a=b&query==&&&",
		"",
	} {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		v, _ := url.ParseQuery(raw)
		want := RunSpec{Model: v.Get("model"), Query: v.Get("query"), Loops: v.Get("loops"),
			Samples: v.Get("samples"), Seed: v.Get("seed"), Commit: v.Get("commit")}
		if got := ParseRunSpec(raw); got != want {
			t.Fatalf("ParseRunSpec(%q) = %+v, want %+v", raw, got, want)
		}
	})
}
