package cobench

import (
	"errors"
	"fmt"
	"strconv"
	"unsafe"

	"complexobj/internal/slab"
	"complexobj/internal/xrand"
)

// Config parameterizes the benchmark extension generator (paper §2.1 and
// the variations of §5.3 and §5.5).
type Config struct {
	// N is the number of Station objects (paper default: 1500).
	N int
	// Prob is the independent generation probability of each platform,
	// railroad and connection slot (paper default: 0.80).
	Prob float64
	// Fanout is the number of slots per level: platforms per station,
	// railroads per platform and connections per railroad (paper default:
	// 2; the data-skew experiment uses 8).
	Fanout int
	// MaxSeeing is the maximum number of sightseeing sub-objects; the
	// actual count is uniform in [0, MaxSeeing] (paper default: 15; the
	// object-size experiment of Figure 5 uses 0 and 30).
	MaxSeeing int
	// Seed drives the deterministic generator.
	Seed uint64
}

// DefaultConfig returns the paper's standard benchmark extension.
func DefaultConfig() Config {
	return Config{N: 1500, Prob: 0.80, Fanout: 2, MaxSeeing: 15, Seed: 1993}
}

// WithN returns a copy with a different database size (Figure 6 sweep).
func (c Config) WithN(n int) Config { c.N = n; return c }

// WithMaxSeeing returns a copy with a different sightseeing bound
// (Figure 5 sweep).
func (c Config) WithMaxSeeing(m int) Config { c.MaxSeeing = m; return c }

// Skewed returns the paper's §5.5 data-skew configuration: generation
// probability 20% and fanout 8, which keeps the sub-object means but makes
// the tails much heavier.
func (c Config) Skewed() Config { c.Prob = 0.20; c.Fanout = 8; return c }

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.N <= 0:
		return errors.New("cobench: N must be positive")
	case c.Prob < 0 || c.Prob > 1:
		return errors.New("cobench: Prob must be in [0,1]")
	case c.Fanout < 1:
		return errors.New("cobench: Fanout must be at least 1")
	case c.MaxSeeing < 0:
		return errors.New("cobench: MaxSeeing must be non-negative")
	}
	return nil
}

// ExpectedPlatforms returns the expected number of platforms per station:
// Fanout slots, each generated with probability Prob (paper: 2·0.8 = 1.6).
func (c Config) ExpectedPlatforms() float64 { return float64(c.Fanout) * c.Prob }

// ExpectedChildren returns the expected number of connections (children)
// per station: (Fanout·Prob)³, i.e. platforms × railroads × connections
// (paper: 1.6·2.56 = 4.10 children on average).
func (c Config) ExpectedChildren() float64 {
	fp := float64(c.Fanout) * c.Prob
	return fp * fp * fp
}

// ExpectedGrandChildren returns ExpectedChildren squared (paper: 16.7 on
// average).
func (c Config) ExpectedGrandChildren() float64 {
	ch := c.ExpectedChildren()
	return ch * ch
}

// ExpectedSeeings returns MaxSeeing/2 (uniform draw over [0, MaxSeeing]).
func (c Config) ExpectedSeeings() float64 { return float64(c.MaxSeeing) / 2 }

// KeyBase is the key of station index 0; station i has key KeyBase+i, so
// keys are unique and disjoint from indices (catching index/key mixups in
// tests).
const KeyBase = 10000

// KeyOf returns the station key for a station index.
func KeyOf(index int) int32 { return int32(KeyBase + index) }

var cityNames = []string{
	"Enschede", "Zurich", "Ulm", "Hengelo", "Almelo", "Deventer", "Apeldoorn",
	"Amersfoort", "Utrecht", "Gouda", "Delft", "Rotterdam", "Basel", "Bern",
	"Chur", "Geneva", "Lausanne", "Lugano", "Luzern", "Winterthur",
}

var words = []string{
	"express", "local", "regional", "museum", "cathedral", "bridge", "tower",
	"garden", "market", "harbour", "castle", "gallery", "fountain", "abbey",
	"theatre", "arcade", "panorama", "monument", "quarter", "terrace",
}

func pick(rng *xrand.Source, list []string) string { return list[rng.Intn(len(list))] }

// Generate produces a benchmark extension. The same Config always yields
// the same database, bit for bit. Each station draws from two independent
// streams keyed by (Seed, index): one for the platform/connection
// structure, one for the sightseeings. Consequently the object graph is
// identical across MaxSeeing settings, which lets the Figure 5 experiment
// isolate the pure object-size effect.
//
// A station allocates nothing of its own: the Stations are one array of N,
// and the arrays of a station — its platforms, its connections (shared by
// the platforms, as Clone's) and its sightseeings — are cut, sized to what
// it holds and capacity-limited, from chunks shared by the stations of the
// extension; so are its strings, from byte chunks only ever appended to.
// A retained station therefore pins the Station array and the chunks it
// was cut from, as a string of an nf2.Strings pins its buffer: a caller
// that keeps one station of many keeps more than its size, and Clone is
// the way to keep just it. Generate's chunks are its own and go to the
// collector with the stations; FreeList.Generate cuts the same extension
// from chunks an owner gives back for the next one.
func Generate(c Config) ([]*Station, error) {
	var g generator
	return g.run(c)
}

// FreeList is a free list of extension memory: the string, array and
// Station chunks of the extensions released to it, which the next
// extension it generates is cut from. An owner that generates many
// extensions and drops each before long (a suite sweeping generator
// configurations) allocates the most it holds at once, not the sum. It is
// safe for concurrent use; the zero value is ready to use.
type FreeList struct {
	strs  slab.Free[byte]
	plats slab.Free[Platform]
	conns slab.Free[Connection]
	sees  slab.Free[Sightseeing]
	all   slab.Free[Station]
	ptrs  slab.Free[*Station]
}

// Extension is a generated extension and the memory it was cut from.
type Extension struct {
	Stations []*Station
	mem      memory
}

// memory is where an extension's strings and arrays are cut from.
type memory struct {
	strs  slab.Slab[byte]
	plats slab.Slab[Platform]
	conns slab.Slab[Connection]
	sees  slab.Slab[Sightseeing]
	all   slab.Slab[Station]
	ptrs  slab.Slab[*Station]
}

// Generate produces c's extension, as the package-level Generate does,
// from chunks of the list: those of released extensions first (zeroed, as
// fresh ones are), new ones only when none is left that fits.
func (l *FreeList) Generate(c Config) (*Extension, error) {
	var g generator
	g.mem.strs.DrawFrom(&l.strs)
	g.mem.plats.DrawFrom(&l.plats)
	g.mem.conns.DrawFrom(&l.conns)
	g.mem.sees.DrawFrom(&l.sees)
	g.mem.all.DrawFrom(&l.all)
	g.mem.ptrs.DrawFrom(&l.ptrs)
	stations, err := g.run(c)
	e := &Extension{Stations: stations, mem: g.mem}
	if err != nil {
		e.Release()
		return nil, err
	}
	return e, nil
}

// FreshBytes returns the bytes of the chunks the list had to allocate:
// the extension memory it drew fresh rather than again.
func (l *FreeList) FreshBytes() int64 {
	return l.strs.MadeBytes() + l.plats.MadeBytes() + l.conns.MadeBytes() +
		l.sees.MadeBytes() + l.all.MadeBytes() + l.ptrs.MadeBytes()
}

// Release gives the extension's memory back to the list that generated
// it, for its next extension: a station, array or string of e kept past
// Release reads that extension's data. Under the poison build tag the
// string chunks are overwritten with 0xDB first, so a kept string reads
// as garbage until the memory is cut again.
func (e *Extension) Release() {
	var scrub func([]byte)
	if poison {
		scrub = func(b []byte) {
			for i := range b {
				b[i] = 0xDB
			}
		}
	}
	e.mem.strs.Release(scrub)
	e.mem.plats.Release(nil)
	e.mem.conns.Release(nil)
	e.mem.sees.Release(nil)
	e.mem.all.Release(nil)
	e.mem.ptrs.Release(nil)
	e.Stations = nil
}

// The generator allocates the stations' platforms, connections and
// sightseeings in chunks of about 16 KiB: a few hundred stations' worth at
// the paper's means, so an extension costs a few allocations per kind of
// array, and what the chunks leave unused — the tail of the last one, the
// tails where an array did not fit — stays ≈ 2 % of the extension's bytes.
// Its strings share 8 KiB chunks, each of which holds at least 80 values
// of at most StrSize bytes.
const (
	chunkBytes      = 16 << 10
	stringsChunk    = 8 << 10
	platformChunk   = chunkBytes / int(unsafe.Sizeof(Platform{}))
	connectionChunk = chunkBytes / int(unsafe.Sizeof(Connection{}))
	seeingChunk     = chunkBytes / int(unsafe.Sizeof(Sightseeing{}))
)

// generator is what one extension's generation carries from station to
// station.
type generator struct {
	c     Config
	mem   memory       // every string and array of the extension
	buf   line         // the STR value being written
	plats []Platform   // the station being drawn, until its fan-outs are known
	conns []Connection // its connections, in platform order
}

// run generates c's extension from g's memory.
func (g *generator) run(c Config) ([]*Station, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	g.c = c
	all := g.mem.all.Cut(c.N, c.N)
	stations := g.mem.ptrs.Cut(c.N, c.N)
	for i := range stations {
		if err := g.station(i, &all[i]); err != nil {
			return nil, err
		}
		stations[i] = &all[i]
	}
	return stations, nil
}

// line is a STR value being written. The values are formatted by appends
// in the order the fmt.Sprintf calls they replace evaluated their
// arguments, left to right, so the random draws — and with them every
// generated byte — are the original generator's (TestGenerateGolden).
type line []byte

func (l line) str(s string) line { return append(l, s...) }
func (l line) num(v int) line    { return strconv.AppendInt(l, int64(v), 10) }

// two appends v, below 100, as %02d does.
func (l line) two(v int) line { return append(l, byte('0'+v/10), byte('0'+v%10)) }

// cut ends the value l, written from g.buf, at the STR capacity and
// returns it as a string over the extension's string chunks, whose bytes
// are never written again while the extension lives.
func (g *generator) cut(l line) string {
	g.buf = l[:0]
	l = l[:min(len(l), StrSize)]
	if len(l) == 0 {
		return ""
	}
	b := g.mem.strs.Cut(len(l), stringsChunk)
	copy(b, l)
	return unsafe.String(&b[0], len(b))
}

// station draws station index into s.
func (g *generator) station(index int, s *Station) error {
	c := g.c
	rng := xrand.New(xrand.Mix(c.Seed, uint64(index)*2))
	seeRng := xrand.New(xrand.Mix(c.Seed, uint64(index)*2+1))
	*s = Station{
		Key:  KeyOf(index),
		Name: g.cut(g.buf.str(pick(rng, cityNames)).str(" Centraal ").num(index).str(" (").str(pick(rng, words)).str(" line)")),
	}
	plats, conns := g.plats[:0], g.conns[:0]
	for slot := 0; slot < c.Fanout; slot++ {
		if !rng.Bool(c.Prob) {
			continue
		}
		p := Platform{
			Nr:          int32(slot + 1),
			TicketCode:  int32(rng.Intn(9000) + 1000),
			Information: g.cut(g.buf.str("platform ").num(slot + 1).str(": ").str(pick(rng, words)).str(" services, ").str(pick(rng, words)).str(" side")),
		}
		// Each of Fanout railroads exists with probability Prob; each
		// existing railroad establishes Fanout connections, each again with
		// probability Prob (paper: at most 4 connections per platform, each
		// effectively with probability 0.8² = 0.64).
		first := len(conns)
		for rail := 0; rail < c.Fanout; rail++ {
			if !rng.Bool(c.Prob) {
				continue
			}
			p.NoLine++
			for conn := 0; conn < c.Fanout; conn++ {
				if !rng.Bool(c.Prob) {
					continue
				}
				target := rng.Intn(c.N)
				times := g.buf // three departures, "%02d:%02d" each
				for k := 0; k < 3; k++ {
					if k > 0 {
						times = times.str(" ")
					}
					times = times.two(rng.Intn(24)).str(":").two(rng.Intn(60))
				}
				conns = append(conns, Connection{
					LineNr:         int32(rail + 1),
					KeyConnection:  KeyOf(target),
					OidConnection:  int32(target),
					DepartureTimes: g.cut(times),
				})
			}
		}
		p.Conns = conns[first:] // counted here, cut from the station's own array below
		plats = append(plats, p)
	}
	g.plats, g.conns = plats, conns
	if len(plats) > 0 {
		s.Platforms = g.mem.plats.Cut(len(plats), platformChunk)
		copy(s.Platforms, plats)
		own := g.mem.conns.Cut(len(conns), connectionChunk)
		copy(own, conns)
		for i := range s.Platforms {
			n := len(s.Platforms[i].Conns)
			s.Platforms[i].Conns = nil
			if n > 0 {
				s.Platforms[i].Conns, own = own[:n:n], own[n:]
			}
		}
	}
	s.Seeings = g.mem.sees.Cut(seeRng.Intn(c.MaxSeeing+1), seeingChunk)
	for j := range s.Seeings {
		s.Seeings[j] = Sightseeing{
			Nr:          int32(j + 1),
			Description: g.cut(g.buf.str("the old ").str(pick(seeRng, words)).str(" of ").str(pick(seeRng, cityNames))),
			Location:    g.cut(g.buf.str(pick(seeRng, words)).str(" street ").num(seeRng.Intn(200) + 1)),
			History:     g.cut(g.buf.str("built ").num(1500 + seeRng.Intn(400)).str(", restored ").num(1900 + seeRng.Intn(90))),
			Remarks:     g.cut(g.buf.str("open ").num(8 + seeRng.Intn(3)).str("-").num(16 + seeRng.Intn(6)).str(", ").str(pick(seeRng, words))),
		}
	}
	s.NoPlatform = int32(len(s.Platforms))
	s.NoSeeing = int32(len(s.Seeings))
	if enc := s.EncodedSize(); enc > 60000 {
		return fmt.Errorf("cobench: station %d encodes to %d bytes, too large for the engine", index, enc)
	}
	return nil
}

// Stats summarizes a generated extension; the paper reports the realised
// averages of its extension in §5.1 (1.59 platforms, 4.04 connections,
// 7.64 sightseeings).
type Stats struct {
	N               int
	AvgPlatforms    float64
	AvgConnections  float64
	AvgSeeings      float64
	AvgGrand        float64 // realised average grand-children per station
	MaxPlatforms    int
	MaxConnections  int // per station
	MaxSeeings      int
	AvgEncodedBytes float64 // average encoded NF² object size
}

// Describe computes extension statistics.
func Describe(stations []*Station) Stats {
	st := Stats{N: len(stations)}
	if st.N == 0 {
		return st
	}
	var plat, conn, see, grand, bytes float64
	for _, s := range stations {
		nc := s.NumConnections()
		plat += float64(len(s.Platforms))
		conn += float64(nc)
		see += float64(len(s.Seeings))
		bytes += float64(s.EncodedSize())
		for _, p := range s.Platforms {
			for _, c := range p.Conns {
				grand += float64(stations[c.OidConnection].NumConnections())
			}
		}
		if len(s.Platforms) > st.MaxPlatforms {
			st.MaxPlatforms = len(s.Platforms)
		}
		if nc > st.MaxConnections {
			st.MaxConnections = nc
		}
		if len(s.Seeings) > st.MaxSeeings {
			st.MaxSeeings = len(s.Seeings)
		}
	}
	n := float64(st.N)
	st.AvgPlatforms = plat / n
	st.AvgConnections = conn / n
	st.AvgSeeings = see / n
	st.AvgGrand = grand / n
	st.AvgEncodedBytes = bytes / n
	return st
}

// SizeBucket is one bar of an object-size histogram.
type SizeBucket struct {
	// Pages is the object footprint under direct storage, approximated as
	// ceil(encoded/effectivePage) with a 2012-byte effective page.
	Pages int
	Count int
}

// SizeHistogram buckets the extension's objects by their direct-storage
// page footprint. The shape explains the Figure 5/6 behaviour: the wider
// the distribution, the more the ceiling effects and cache misses of the
// direct models hurt.
func SizeHistogram(stations []*Station) []SizeBucket {
	const effPage = 2012
	counts := map[int]int{}
	maxPages := 0
	for _, s := range stations {
		enc := s.EncodedSize()
		pages := (enc + effPage - 1) / effPage
		counts[pages]++
		if pages > maxPages {
			maxPages = pages
		}
	}
	var out []SizeBucket
	for p := 1; p <= maxPages; p++ {
		out = append(out, SizeBucket{Pages: p, Count: counts[p]})
	}
	return out
}
