package cobench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
)

// goldenConfigs are the extensions whose every byte is pinned: the paper's
// default, the §5.5 skew and the two Figure 5 object-size extremes.
var goldenConfigs = []struct {
	name string
	cfg  Config
	hash string
}{
	{"default", DefaultConfig(), "3fadd79413c092225b384e268f8b262a21f6ee6f20218ece8f06691276bc321f"},
	{"skewed", DefaultConfig().Skewed(), "83d8fa329b13f91144c3fee1882b21479f4a0ba96f13c0266a035eb907e08f15"},
	{"maxSeeing0", DefaultConfig().WithMaxSeeing(0), "ff6aef13b68e53635b6e7105ce0a8957725d77473aacb91660576bd96e220c1b"},
	{"maxSeeing30", DefaultConfig().WithMaxSeeing(30), "45b6ceb6648747172dd7b9487b553ecd3d9779ed3150b00e002fa1f7725c9644"},
}

// hashExtension digests every field of every station, in declaration
// order, with counts and string lengths written out so that no two
// extensions share a serialization.
func hashExtension(stations []*Station) string {
	h := sha256.New()
	num := func(vs ...int32) {
		for _, v := range vs {
			h.Write(binary.BigEndian.AppendUint32(nil, uint32(v)))
		}
	}
	str := func(vs ...string) {
		for _, v := range vs {
			num(int32(len(v)))
			h.Write([]byte(v))
		}
	}
	num(int32(len(stations)))
	for _, s := range stations {
		num(s.Key, s.NoPlatform, s.NoSeeing)
		str(s.Name)
		num(int32(len(s.Platforms)))
		for _, p := range s.Platforms {
			num(p.Nr, p.NoLine, p.TicketCode)
			str(p.Information)
			num(int32(len(p.Conns)))
			for _, c := range p.Conns {
				num(c.LineNr, c.KeyConnection, c.OidConnection)
				str(c.DepartureTimes)
			}
		}
		num(int32(len(s.Seeings)))
		for _, g := range s.Seeings {
			num(g.Nr)
			str(g.Description, g.Location, g.History, g.Remarks)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateGolden pins the generator's output byte for byte: the RNG
// draw order (two streams per station, Sprintf-era left-to-right argument
// order included) and the text of all seven string attributes. The
// constants were computed on the fmt.Sprintf generator before Generate
// was moved onto strconv appends and a string arena.
func TestGenerateGolden(t *testing.T) {
	for _, g := range goldenConfigs {
		if got := hashExtension(mustGenerate(t, g.cfg)); got != g.hash {
			t.Errorf("%s: extension hash %s, want %s", g.name, got, g.hash)
		}
	}
}

// TestStationEncodedSize holds the fan-out arithmetic to the tree it
// replaced — StationType.EncodedSize of the station's tuple, and the
// length Encode writes — for every station of the pinned extensions.
func TestStationEncodedSize(t *testing.T) {
	for _, g := range goldenConfigs {
		for i, s := range mustGenerate(t, g.cfg) {
			tup := s.Tuple()
			buf, err := StationType.Encode(tup)
			if err != nil {
				t.Fatalf("%s: station %d: %v", g.name, i, err)
			}
			if got := s.EncodedSize(); got != StationType.EncodedSize(tup) || got != len(buf) {
				t.Fatalf("%s: station %d: EncodedSize %d, tuple %d, encoded %d", g.name, i, got, StationType.EncodedSize(tup), len(buf))
			}
		}
	}
}

// TestQuickEqualAgreesWithTupleEqual: field-by-field Equal is the tuple
// comparison it replaced, on identical pairs, on pairs one mutation apart
// (every attribute and every fan-out is a mutation site) and on nil-versus-
// empty sub-relations.
func TestQuickEqualAgreesWithTupleEqual(t *testing.T) {
	stations := mustGenerate(t, DefaultConfig().WithN(60))
	rng := rand.New(rand.NewSource(22))
	mutations := []func(s *Station){
		func(s *Station) { s.Key++ },
		func(s *Station) { s.NoPlatform++ },
		func(s *Station) { s.NoSeeing-- },
		func(s *Station) { s.Name += "!" },
		func(s *Station) { s.Platforms = append(s.Platforms, Platform{Nr: 9}) },
		func(s *Station) { s.Seeings = append(s.Seeings, Sightseeing{Nr: 99}) },
		func(s *Station) { s.Seeings = []Sightseeing{} },
		func(s *Station) { s.Platforms = []Platform{} },
	}
	for _, f := range []func(p *Platform){
		func(p *Platform) { p.Nr++ },
		func(p *Platform) { p.NoLine++ },
		func(p *Platform) { p.TicketCode++ },
		func(p *Platform) { p.Information = "" },
		func(p *Platform) { p.Conns = append(p.Conns, Connection{LineNr: 5}) },
		func(p *Platform) { p.Conns = []Connection{} },
		func(p *Platform) {
			if len(p.Conns) > 0 {
				c := &p.Conns[rng.Intn(len(p.Conns))]
				switch rng.Intn(4) {
				case 0:
					c.LineNr++
				case 1:
					c.KeyConnection++
				case 2:
					c.OidConnection++
				default:
					c.DepartureTimes = "never"
				}
			}
		},
	} {
		mutations = append(mutations, func(s *Station) {
			if len(s.Platforms) > 0 {
				f(&s.Platforms[rng.Intn(len(s.Platforms))])
			}
		})
	}
	for _, f := range []func(g *Sightseeing){
		func(g *Sightseeing) { g.Nr++ },
		func(g *Sightseeing) { g.Description += "?" },
		func(g *Sightseeing) { g.Location = g.History },
		func(g *Sightseeing) { g.History = g.Remarks },
		func(g *Sightseeing) { g.Remarks = "" },
	} {
		mutations = append(mutations, func(s *Station) {
			if len(s.Seeings) > 0 {
				f(&s.Seeings[rng.Intn(len(s.Seeings))])
			}
		})
	}
	differed := 0
	for trial := 0; trial < 3000; trial++ {
		a := stations[rng.Intn(len(stations))]
		b := a.Clone()
		if trial%4 == 1 {
			b = stations[rng.Intn(len(stations))].Clone()
		}
		if trial%4 != 0 {
			mutations[rng.Intn(len(mutations))](b)
		}
		want := StationType.Equal(a.Tuple(), b.Tuple())
		if got := a.Equal(b); got != want || b.Equal(a) != want {
			t.Fatalf("trial %d: Equal = %v, tuple comparison %v\na = %+v\nb = %+v", trial, got, want, a, b)
		}
		if !want {
			differed++
		}
	}
	if differed < 1500 {
		t.Errorf("only %d of 3000 pairs differed: the mutations are not biting", differed)
	}
}
