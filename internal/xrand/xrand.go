package xrand

// Source is a splitmix64 pseudo random generator. The zero value is a valid
// generator seeded with 0.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source { return &Source{state: seed} }

// Uint64 returns the next pseudo random 64-bit value.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a pseudo random int in [0, n). It panics when n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling would be overkill here;
	// modulo bias for n << 2^64 is far below the sampling noise of the
	// experiments, but we still use the high bits which are the strongest.
	return int((s.Uint64() >> 11) % uint64(n))
}

// Float64 returns a pseudo random float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / float64(1<<53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Mix derives a well-distributed seed from a base seed and a stream
// identifier. Two streams with different ids are statistically independent
// even for adjacent ids, so callers can key streams by (seed, index) —
// the benchmark generator uses this to draw each station's structure and
// its sightseeings independently, which keeps the object graph identical
// across the Figure 5 object-size sweep.
func Mix(seed, stream uint64) uint64 {
	z := seed ^ 0xa0761d6478bd642f
	z += 0x9e3779b97f4a7c15 * (stream + 1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// PermInto fills p with a pseudo random permutation of [0, len(p)),
// whatever p held, without allocating.
func (s *Source) PermInto(p []int) {
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
}
