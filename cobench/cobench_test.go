package cobench

import (
	"math"
	"strings"
	"testing"
	"unsafe"

	"complexobj/nf2"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig()
	if c.N != 1500 || c.Prob != 0.80 || c.Fanout != 2 || c.MaxSeeing != 15 {
		t.Errorf("default config %+v does not match the paper", c)
	}
}

func TestExpectedValuesMatchPaper(t *testing.T) {
	c := DefaultConfig()
	if got := c.ExpectedPlatforms(); math.Abs(got-1.6) > 1e-9 {
		t.Errorf("ExpectedPlatforms = %f, want 1.6", got)
	}
	// Paper: "each Station has ... = 4.10 children" on average.
	if got := c.ExpectedChildren(); math.Abs(got-4.096) > 1e-9 {
		t.Errorf("ExpectedChildren = %f, want 4.096", got)
	}
	// Paper: "0-64, on the average 16.7" grand-children.
	if got := c.ExpectedGrandChildren(); math.Abs(got-16.777216) > 1e-6 {
		t.Errorf("ExpectedGrandChildren = %f, want 16.777", got)
	}
	if got := c.ExpectedSeeings(); got != 7.5 {
		t.Errorf("ExpectedSeeings = %f, want 7.5", got)
	}
}

func TestSkewedConfigKeepsMeans(t *testing.T) {
	s := DefaultConfig().Skewed()
	if s.Prob != 0.20 || s.Fanout != 8 {
		t.Errorf("skewed config %+v, want prob 0.2 fanout 8", s)
	}
	d := DefaultConfig()
	if math.Abs(s.ExpectedChildren()-d.ExpectedChildren()) > 1e-9 {
		t.Errorf("skew changes expected children: %f vs %f",
			s.ExpectedChildren(), d.ExpectedChildren())
	}
	if math.Abs(s.ExpectedPlatforms()-d.ExpectedPlatforms()) > 1e-9 {
		t.Errorf("skew changes expected platforms")
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	for name, c := range map[string]Config{
		"zeroN":      good.WithN(0),
		"negProb":    {N: 1, Prob: -0.1, Fanout: 2},
		"probOver1":  {N: 1, Prob: 1.1, Fanout: 2},
		"zeroFanout": {N: 1, Prob: 0.5, Fanout: 0},
		"negSeeing":  {N: 1, Prob: 0.5, Fanout: 2, MaxSeeing: -1},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	c := DefaultConfig().WithN(50)
	a, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("station %d differs between same-seed generations", i)
		}
	}
	c2 := c
	c2.Seed++
	d, err := Generate(c2)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if a[i].Equal(d[i]) {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical extensions")
	}
}

func TestGenerateDistribution(t *testing.T) {
	c := DefaultConfig()
	stations, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	st := Describe(stations)
	// Sampling tolerances: with n=1500, means should land near the paper's
	// published realisation (1.59 platforms, 4.04 connections, 7.64
	// sightseeings).
	if math.Abs(st.AvgPlatforms-1.6) > 0.08 {
		t.Errorf("avg platforms = %f, want ~1.6", st.AvgPlatforms)
	}
	if math.Abs(st.AvgConnections-4.096) > 0.25 {
		t.Errorf("avg connections = %f, want ~4.10", st.AvgConnections)
	}
	if math.Abs(st.AvgSeeings-7.5) > 0.35 {
		t.Errorf("avg sightseeings = %f, want ~7.5", st.AvgSeeings)
	}
	if math.Abs(st.AvgGrand-16.78) > 1.6 {
		t.Errorf("avg grand-children = %f, want ~16.7", st.AvgGrand)
	}
	// Bounds from the structure: at most fanout platforms, fanout² conns
	// per platform.
	if st.MaxPlatforms > c.Fanout {
		t.Errorf("max platforms %d > fanout %d", st.MaxPlatforms, c.Fanout)
	}
	if st.MaxConnections > c.Fanout*c.Fanout*c.Fanout {
		t.Errorf("max connections %d > %d", st.MaxConnections, c.Fanout*c.Fanout*c.Fanout)
	}
	if st.MaxSeeings > c.MaxSeeing {
		t.Errorf("max sightseeings %d > %d", st.MaxSeeings, c.MaxSeeing)
	}
}

func TestGenerateSkewedDistribution(t *testing.T) {
	stations, err := Generate(DefaultConfig().Skewed())
	if err != nil {
		t.Fatal(err)
	}
	st := Describe(stations)
	// Paper §5.5: the skewed extension realised 1.57 platforms and 3.99
	// connections per station — the same means as the default extension.
	if math.Abs(st.AvgPlatforms-1.6) > 0.12 {
		t.Errorf("skew avg platforms = %f, want ~1.6", st.AvgPlatforms)
	}
	if math.Abs(st.AvgConnections-4.096) > 0.4 {
		t.Errorf("skew avg connections = %f, want ~4.10", st.AvgConnections)
	}
	// Heavier tails: the paper observed up to 6 platforms and 34
	// connections per station.
	def := Describe(mustGenerate(t, DefaultConfig()))
	if st.MaxPlatforms <= def.MaxPlatforms {
		t.Errorf("skew max platforms %d not heavier than default %d",
			st.MaxPlatforms, def.MaxPlatforms)
	}
	if st.MaxConnections <= def.MaxConnections {
		t.Errorf("skew max connections %d not heavier than default %d",
			st.MaxConnections, def.MaxConnections)
	}
}

func mustGenerate(t *testing.T, c Config) []*Station {
	t.Helper()
	s, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGenerateMaxSeeingSweep(t *testing.T) {
	// Figure 5 uses maxSeeing 0, 15, 30; realised averages were 0, 7.64, 15.3.
	for _, m := range []int{0, 15, 30} {
		st := Describe(mustGenerate(t, DefaultConfig().WithMaxSeeing(m)))
		want := float64(m) / 2
		if math.Abs(st.AvgSeeings-want) > 0.7 {
			t.Errorf("maxSeeing=%d: avg %f, want ~%f", m, st.AvgSeeings, want)
		}
	}
}

func TestChildrenReferencesValid(t *testing.T) {
	c := DefaultConfig().WithN(200)
	stations := mustGenerate(t, c)
	for i, s := range stations {
		if s.Key != KeyOf(i) {
			t.Fatalf("station %d has key %d, want %d", i, s.Key, KeyOf(i))
		}
		for _, child := range s.Children() {
			if child < 0 || int(child) >= c.N {
				t.Fatalf("station %d references out-of-range child %d", i, child)
			}
		}
		for _, p := range s.Platforms {
			for _, conn := range p.Conns {
				if conn.KeyConnection != KeyOf(int(conn.OidConnection)) {
					t.Fatalf("station %d: KeyConnection %d inconsistent with OID %d",
						i, conn.KeyConnection, conn.OidConnection)
				}
			}
		}
		if int(s.NoPlatform) != len(s.Platforms) || int(s.NoSeeing) != len(s.Seeings) {
			t.Fatalf("station %d counters inconsistent", i)
		}
	}
}

// TestGeneratedStationsAreIndependent: the stations of one extension share
// the chunks their arrays are cut from, yet each is a value of its own —
// growing one station's platforms, connections or sightseeings by append
// leaves every other station as generated.
func TestGeneratedStationsAreIndependent(t *testing.T) {
	c := DefaultConfig().WithN(200)
	grown, want := mustGenerate(t, c), mustGenerate(t, c)
	for _, s := range grown {
		for pi := range s.Platforms {
			p := &s.Platforms[pi]
			p.Conns = append(p.Conns, Connection{LineNr: 99, DepartureTimes: "grown"})
		}
		s.Platforms = append(s.Platforms, Platform{Nr: 99, Information: "grown"})
		s.Seeings = append(s.Seeings, Sightseeing{Nr: 99, Remarks: "grown"})
	}
	for i, s := range grown {
		g := *s // s less what was appended to it
		g.Platforms = make([]Platform, len(s.Platforms)-1)
		for pi := range g.Platforms {
			g.Platforms[pi] = s.Platforms[pi]
			g.Platforms[pi].Conns = s.Platforms[pi].Conns[:len(s.Platforms[pi].Conns)-1]
		}
		g.Seeings = s.Seeings[:len(s.Seeings)-1]
		if !g.Equal(want[i]) {
			t.Fatalf("station %d changed when the stations around it grew:\n got %+v\nwant %+v", i, &g, want[i])
		}
	}
}

// TestTupleRoundTrip pins the tree form the encoders are tested against:
// a station's tuple is valid and carries its attributes and sub-objects.
func TestTupleRoundTrip(t *testing.T) {
	stations := mustGenerate(t, DefaultConfig().WithN(30))
	for i, s := range stations {
		tup := s.Tuple()
		if err := StationType.Validate(tup); err != nil {
			t.Fatalf("station %d tuple invalid: %v", i, err)
		}
		v := tup.Vals
		plats, sees := v[StPlatforms].Tuples(), v[StSeeings].Tuples()
		if v[StKey].Int() != s.Key || v[StName].Str() != s.Name ||
			len(plats) != len(s.Platforms) || len(sees) != len(s.Seeings) {
			t.Fatalf("station %d: tuple lost root attributes or sub-objects", i)
		}
		for j, p := range plats {
			if want := s.Platforms[j]; p.Vals[PlNr].Int() != want.Nr || len(p.Vals[PlConns].Tuples()) != len(want.Conns) {
				t.Fatalf("station %d platform %d: tuple lost attributes or connections", i, j)
			}
		}
		if len(sees) > 0 && sees[0].Vals[SeRemarks].Str() != s.Seeings[0].Remarks {
			t.Fatalf("station %d: sightseeing tuple lost its remarks", i)
		}
	}
}

func TestTupleEncodeRoundTrip(t *testing.T) {
	stations := mustGenerate(t, DefaultConfig().WithN(30))
	for i, s := range stations {
		tup := s.Tuple()
		buf, err := StationType.Encode(tup)
		if err != nil {
			t.Fatalf("station %d: %v", i, err)
		}
		back, err := StationType.Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !StationType.Equal(tup, back) {
			t.Fatalf("station %d binary round trip mismatch", i)
		}
	}
}

func TestRootRecord(t *testing.T) {
	s := mustGenerate(t, DefaultConfig().WithN(5))[0]
	r := s.Root()
	if r.Key != s.Key || r.Name != s.Name {
		t.Error("Root() lost fields")
	}
	r.Name = "renamed"
	s.SetRoot(r)
	if s.Name != "renamed" {
		t.Error("SetRoot did not apply")
	}
}

func TestQueryStrings(t *testing.T) {
	want := []string{"1a", "1b", "1c", "2a", "2b", "3a", "3b"}
	for i, q := range AllQueries() {
		if q.String() != want[i] {
			t.Errorf("query %d String = %q, want %q", i, q.String(), want[i])
		}
	}
	if !Q3a.Updates() || Q2a.Updates() {
		t.Error("Updates() wrong")
	}
}

func TestLoopsFor(t *testing.T) {
	if LoopsFor(1500) != 300 {
		t.Errorf("LoopsFor(1500) = %d, want 300 (paper)", LoopsFor(1500))
	}
	if LoopsFor(100) != 20 {
		t.Errorf("LoopsFor(100) = %d, want 20 (Figure 6)", LoopsFor(100))
	}
	if LoopsFor(3) != 1 {
		t.Errorf("LoopsFor(3) = %d, want 1", LoopsFor(3))
	}
}

func TestNamesRespectCapacity(t *testing.T) {
	for _, s := range mustGenerate(t, DefaultConfig().WithN(100)) {
		if len(s.Name) > StrSize {
			t.Fatalf("name %q exceeds STR capacity", s.Name)
		}
		for _, p := range s.Platforms {
			if len(p.Information) > StrSize {
				t.Fatalf("information exceeds STR capacity")
			}
		}
	}
}

func TestDescribeEmpty(t *testing.T) {
	st := Describe(nil)
	if st.N != 0 || st.AvgPlatforms != 0 {
		t.Errorf("Describe(nil) = %+v", st)
	}
}

func TestAverageObjectSizeBallpark(t *testing.T) {
	// The paper's DASDBS measured 6078 bytes per average station (Table 2)
	// including DASDBS internal overheads; our leaner encoding must land in
	// the same ballpark (a few KiB), since the raw payload alone is ~3.8 KiB.
	st := Describe(mustGenerate(t, DefaultConfig()))
	if st.AvgEncodedBytes < 3500 || st.AvgEncodedBytes > 6500 {
		t.Errorf("avg encoded station = %.0f bytes, expected 3.5-6.5 KiB", st.AvgEncodedBytes)
	}
	if testing.Verbose() {
		t.Logf("avg encoded station size: %.1f bytes", st.AvgEncodedBytes)
	}
}

func TestSchemaMatchesFigure1(t *testing.T) {
	s := StationType.String()
	for _, attr := range []string{"Key", "NoPlatform", "NoSeeing", "Name", "Platform", "Sightseeing"} {
		if !strings.Contains(s, attr) {
			t.Errorf("station schema missing %s: %s", attr, s)
		}
	}
	if ConnectionType.Attrs[CoOid].Type.Kind != nf2.Link {
		t.Error("OidConnection is not a LINK attribute")
	}
}

func TestStructureInvariantAcrossMaxSeeing(t *testing.T) {
	// The Figure 5 sweep varies only the sightseeing payload; platforms and
	// connections must stay identical so the experiment isolates the
	// object-size effect.
	a := mustGenerate(t, DefaultConfig().WithN(80).WithMaxSeeing(0))
	b := mustGenerate(t, DefaultConfig().WithN(80).WithMaxSeeing(30))
	for i := range a {
		sa, sb := a[i], b[i]
		if len(sa.Platforms) != len(sb.Platforms) {
			t.Fatalf("station %d platform count differs across maxSeeing", i)
		}
		ka, kb := sa.Children(), sb.Children()
		if len(ka) != len(kb) {
			t.Fatalf("station %d child count differs across maxSeeing", i)
		}
		for j := range ka {
			if ka[j] != kb[j] {
				t.Fatalf("station %d child %d differs across maxSeeing", i, j)
			}
		}
	}
}

func TestSizeHistogram(t *testing.T) {
	stations := mustGenerate(t, DefaultConfig().WithN(400))
	hist := SizeHistogram(stations)
	if len(hist) == 0 {
		t.Fatal("empty histogram")
	}
	total := 0
	for i, b := range hist {
		if b.Pages != i+1 {
			t.Errorf("bucket %d pages = %d", i, b.Pages)
		}
		total += b.Count
	}
	if total != 400 {
		t.Errorf("histogram counts %d objects, want 400", total)
	}
	// With maxSeeing=0 every object fits one or two pages.
	small := SizeHistogram(mustGenerate(t, DefaultConfig().WithN(200).WithMaxSeeing(0)))
	if len(small) > 2 {
		t.Errorf("tiny objects spread over %d buckets", len(small))
	}
	if SizeHistogram(nil) != nil {
		t.Error("nil input should give nil histogram")
	}
}

// TestCloneSurvivesSourceReuse: a clone equals its source and shares no
// memory with it — the source's slices and strings are overwritten in place
// (what a storage model does to the Station a scan lends) and the clone
// still equals the original — and costs five allocations however many
// attributes the object has.
func TestCloneSurvivesSourceReuse(t *testing.T) {
	stations, err := Generate(DefaultConfig().WithN(40))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range stations {
		// src is a copy whose strings are cut from a byte arena, as a storage
		// model's are, so that the arena can be scribbled on afterwards.
		arena := make([]byte, 0, 64<<10)
		lend := func(v string) string {
			if v == "" {
				return ""
			}
			from := len(arena)
			arena = append(arena, v...) // within capacity: the strings stay put
			return unsafe.String(&arena[from], len(v))
		}
		src := &Station{Key: want.Key, NoPlatform: want.NoPlatform, NoSeeing: want.NoSeeing, Name: lend(want.Name)}
		for _, p := range want.Platforms {
			p.Information = lend(p.Information)
			p.Conns = append([]Connection(nil), p.Conns...)
			for ci := range p.Conns {
				p.Conns[ci].DepartureTimes = lend(p.Conns[ci].DepartureTimes)
			}
			src.Platforms = append(src.Platforms, p)
		}
		for _, g := range want.Seeings {
			g.Description, g.Location, g.History, g.Remarks = lend(g.Description), lend(g.Location), lend(g.History), lend(g.Remarks)
			src.Seeings = append(src.Seeings, g)
		}

		c := src.Clone()
		if !c.Equal(want) {
			t.Fatalf("clone of station %d differs from its source", i)
		}
		for pi := range src.Platforms {
			for ci := range src.Platforms[pi].Conns {
				src.Platforms[pi].Conns[ci] = Connection{DepartureTimes: "reused"}
			}
			src.Platforms[pi] = Platform{Information: "reused", Conns: src.Platforms[pi].Conns}
		}
		for gi := range src.Seeings {
			src.Seeings[gi] = Sightseeing{Remarks: "reused"}
		}
		src.SetRoot(RootRecord{Name: "reused"})
		for b := range arena {
			arena[b] = 0xDB
		}
		if !c.Equal(want) {
			t.Fatalf("clone of station %d changed when its source was overwritten", i)
		}
		for pi, p := range c.Platforms {
			if cap(p.Conns) != len(p.Conns) {
				t.Fatalf("station %d platform %d: an append to the clone's Conns would write its neighbour's", i, pi)
			}
		}
		if got := testing.AllocsPerRun(5, func() { want.Clone() }); got > 5 {
			t.Errorf("Clone of station %d: %v allocations, want at most 5", i, got)
		}
	}
}
