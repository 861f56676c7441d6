package xrand

import (
	"math"
	"slices"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed sources diverge at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds collided %d/100 times", same)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(7)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Intn(10) produced only %d distinct values over 10000 draws", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %f out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %f, want ~0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(11)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.8) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.8) > 0.01 {
		t.Errorf("Bool(0.8) hit rate = %f", p)
	}
	if s.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !s.Bool(1) {
		t.Error("Bool(1) returned false")
	}
}

func TestPerm(t *testing.T) {
	s := New(9)
	p := make([]int, 20)
	s.PermInto(p)
	if len(p) != 20 {
		t.Fatalf("Perm(20) length %d", len(p))
	}
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm(20) not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	s := New(13)
	counts, p := make([]int, 5), make([]int, 5)
	const n = 50000
	for i := 0; i < n; i++ {
		s.PermInto(p)
		counts[p[0]]++
	}
	for v, c := range counts {
		if math.Abs(float64(c)/n-0.2) > 0.01 {
			t.Errorf("Perm(5)[0]=%d frequency %f, want ~0.2", v, float64(c)/n)
		}
	}
}

// TestPermIntoMatchesPerm: whatever the buffer held, PermInto leaves the
// permutation it leaves in a fresh buffer from the same state, consumes
// the same draws, and allocates nothing.
func TestPermIntoMatchesPerm(t *testing.T) {
	buf := make([]int, 1500)
	for _, n := range []int{0, 1, 2, 37, 1500} {
		a, b := New(uint64(n)+5), New(uint64(n)+5)
		want := make([]int, n)
		a.PermInto(want)
		got := buf[:n]
		for i := range got {
			got[i] = -7 // stale contents of a reused buffer
		}
		b.PermInto(got)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: PermInto over stale contents = %v, over a fresh buffer %v", n, got, want)
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("n=%d: PermInto consumed a different number of draws over stale contents", n)
		}
	}
	s := New(1)
	if allocs := testing.AllocsPerRun(10, func() { s.PermInto(buf) }); allocs != 0 {
		t.Errorf("PermInto allocates %v times per call", allocs)
	}
}
