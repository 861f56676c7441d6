package shard

import (
	"path/filepath"
	"reflect"
	"testing"
)

var paperModels = []string{"DSM", "DASDBS-DSM", "NSM", "NSM+index", "DASDBS-NSM"}

func TestPartitionRange(t *testing.T) {
	m, err := Partition(paperModels, 2, StrategyRange)
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != 1 || len(m.Shards) != 2 {
		t.Fatalf("got version %d, %d shards", m.Version, len(m.Shards))
	}
	// 5 models over 2 shards: 3 + 2, contiguous in input order.
	if want := []string{"DSM", "DASDBS-DSM", "NSM"}; !reflect.DeepEqual(m.Shards[0].Models, want) {
		t.Errorf("shard 0 owns %v, want %v", m.Shards[0].Models, want)
	}
	if want := []string{"NSM+index", "DASDBS-NSM"}; !reflect.DeepEqual(m.Shards[1].Models, want) {
		t.Errorf("shard 1 owns %v, want %v", m.Shards[1].Models, want)
	}
}

func TestPartitionHashDeterministicAndComplete(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		a, err := Partition(paperModels, n, StrategyHash)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Partition(paperModels, n, StrategyHash)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("n=%d: hash partition not deterministic", n)
		}
		for _, name := range paperModels {
			if _, ok := a.Owner(name); !ok {
				t.Fatalf("n=%d: %s unowned", n, name)
			}
		}
	}
	// Hash placement must not depend on input order.
	rev := []string{"DASDBS-NSM", "NSM+index", "NSM", "DASDBS-DSM", "DSM"}
	a, _ := Partition(paperModels, 4, StrategyHash)
	b, _ := Partition(rev, 4, StrategyHash)
	for _, name := range paperModels {
		ai, _ := a.Owner(name)
		bi, _ := b.Owner(name)
		if ai != bi {
			t.Errorf("%s: owner %d vs %d under reordering", name, ai, bi)
		}
	}
}

func TestPartitionExplicit(t *testing.T) {
	m, err := Partition(paperModels, 2, "explicit:DASDBS-DSM,NSM,NSM+index/DSM,DASDBS-NSM")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"DASDBS-DSM", "NSM", "NSM+index"}; !reflect.DeepEqual(m.Shards[0].Models, want) {
		t.Errorf("shard 0 owns %v, want %v", m.Shards[0].Models, want)
	}
	if want := []string{"DSM", "DASDBS-NSM"}; !reflect.DeepEqual(m.Shards[1].Models, want) {
		t.Errorf("shard 1 owns %v, want %v", m.Shards[1].Models, want)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("explicit map invalid: %v", err)
	}
	// A rewritten map keeps the full spec as its strategy.
	data, err := m.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if !reflect.DeepEqual(back, m) {
		t.Errorf("round trip changed the map")
	}

	for _, spec := range []string{
		"explicit:DSM/NSM", // incomplete
		"explicit:DSM,DSM,NSM,NSM+index,DASDBS-NSM/DASDBS-DSM",   // duplicate
		"explicit:DSM,bogus,NSM,NSM+index,DASDBS-NSM/DASDBS-DSM", // unknown model
		"explicit:DSM,DASDBS-DSM,NSM,NSM+index,DASDBS-NSM",       // 1 group for 2 shards
	} {
		if _, err := Partition(paperModels, 2, spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	if _, err := Partition(paperModels, 0, StrategyHash); err == nil {
		t.Error("0 shards accepted")
	}
	if _, err := Partition(nil, 2, StrategyHash); err == nil {
		t.Error("no models accepted")
	}
	if _, err := Partition(paperModels, 2, "modulo"); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() *Map {
		m, _ := Partition(paperModels, 2, StrategyRange)
		return m
	}
	cases := map[string]func(*Map){
		"version 0":       func(m *Map) { m.Version = 0 },
		"bad strategy":    func(m *Map) { m.Strategy = "x" },
		"no shards":       func(m *Map) { m.Shards = nil },
		"negative id":     func(m *Map) { m.Shards[0].ID = -1 },
		"duplicate id":    func(m *Map) { m.Shards[1].ID = m.Shards[0].ID },
		"duplicate model": func(m *Map) { m.Shards[1].Models = append(m.Shards[1].Models, "DSM") },
		"empty name":      func(m *Map) { m.Shards[0].Models[0] = "" },
		"no models":       func(m *Map) { m.Shards[0].Models = nil; m.Shards[1].Models = nil },
	}
	for name, mutate := range cases {
		m := base()
		mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m, _ := Partition(paperModels, 3, StrategyHash)
	m.Shards[0].Backend = "http://127.0.0.1:9001"
	m.Shards[0].Segment = "bench.s0.codb"
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip changed the map:\n%+v\n%+v", m, got)
	}
}

func TestDecodeRejects(t *testing.T) {
	for name, data := range map[string]string{
		"garbage":        "not json",
		"unknown field":  `{"version":1,"strategy":"hash","shards":[{"id":0,"models":["DSM"]}],"extra":1}`,
		"trailing data":  `{"version":1,"strategy":"hash","shards":[{"id":0,"models":["DSM"]}]} {}`,
		"invalid map":    `{"version":0,"strategy":"hash","shards":[{"id":0,"models":["DSM"]}]}`,
		"empty document": ``,
	} {
		if _, err := Decode([]byte(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestWriteLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.shards.json")
	m, _ := Partition(paperModels, 2, StrategyRange)
	m.Shards[1].Segment = "bench.s1.codb"
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("load changed the map:\n%+v\n%+v", m, got)
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestNames(t *testing.T) {
	if got := SegmentName("/tmp/bench.codb", 2); got != "/tmp/bench.s2.codb" {
		t.Errorf("SegmentName = %q", got)
	}
	if got := MapName("/tmp/bench.codb"); got != "/tmp/bench.shards.json" {
		t.Errorf("MapName = %q", got)
	}
}

// FuzzMapRoundTrip pins the codec invariant: any input Decode accepts
// must re-encode to a document Decode accepts again, identical as a map
// (the property routers and backends rely on when they pass maps around).
func FuzzMapRoundTrip(f *testing.F) {
	m, _ := Partition(paperModels, 2, StrategyRange)
	seed, _ := m.Encode()
	f.Add(seed)
	m2, _ := Partition(paperModels, 4, StrategyHash)
	m2.Shards[0].Backend = "http://127.0.0.1:9001"
	m2.Shards[1].Segment = "bench.s1.codb"
	seed2, _ := m2.Encode()
	f.Add(seed2)
	f.Add([]byte(`{"version":1,"strategy":"hash","shards":[{"id":0,"models":["DSM"]}]}`))
	f.Add([]byte(`{"version":18446744073709551615,"strategy":"range","shards":[{"id":0,"models":["a","b"]},{"id":7,"models":["c"]}]}`))
	f.Add([]byte(`not a map`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return // rejected inputs are out of scope; only accepted maps must round-trip
		}
		enc, err := m.Encode()
		if err != nil {
			t.Fatalf("accepted map failed to encode: %v", err)
		}
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded map rejected: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("round trip changed the map:\n%+v\n%+v", m, again)
		}
	})
}
