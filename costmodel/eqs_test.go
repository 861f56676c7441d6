package costmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (±%g)", name, got, want, tol)
	}
}

func TestPagesPerTuple(t *testing.T) {
	// The paper's Equation 2, p = ceil(stuple/spage), on its own numbers:
	// in DASDBS the header pages are disjoint from the data pages, so the
	// 6078-byte average station, header space included, spans 4 pages.
	p := PaperParams()
	approx(t, "DirectP", p.DirectP, math.Ceil(6078/p.SPage), 0)
}

func TestLargeEntire(t *testing.T) {
	// Equation 3 on the paper's query 2a / DSM cell: ~21.9 objects times 4
	// pages ≈ 86.9 (the paper rounds the expected object count).
	got := LargeEntire(PaperWorkload().ObjectsPerLoop(), 4)
	approx(t, "X(21.9, 4)", got, 86.9, 1.0)
}

func TestBernsteinBounds(t *testing.T) {
	approx(t, "Bernstein(1,m)", Bernstein(1, 100), 1, 1e-9)
	if got := Bernstein(1e9, 100); math.Abs(got-100) > 1e-6 {
		t.Errorf("Bernstein(inf,m) = %g, want m", got)
	}
	if Bernstein(0, 100) != 0 || Bernstein(10, 0) != 0 {
		t.Error("Bernstein degenerate inputs")
	}
}

func TestBernsteinMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		t1, t2 := float64(a%1000), float64(b%1000)
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		return Bernstein(t1, 200) <= Bernstein(t2, 200)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestYaoAgreesWithBernstein(t *testing.T) {
	// For large n the two formulas converge; Yao selects t *distinct*
	// tuples (without replacement) while Bernstein models t draws with
	// replacement, so Yao touches at least as many pages.
	n, k := 10000, 10
	m := n / k
	for _, tt := range []int{1, 10, 100, 1000} {
		y := Yao(tt, n, k)
		b := Bernstein(float64(tt), float64(m))
		if math.Abs(y-b)/b > 0.05 {
			t.Errorf("t=%d: Yao %g vs Bernstein %g differ by >5%%", tt, y, b)
		}
		if y < b-1e-9 {
			t.Errorf("t=%d: Yao %g below Bernstein %g (distinct draws must touch at least as many pages)", tt, y, b)
		}
	}
}

func TestYaoEdgeCases(t *testing.T) {
	if got := Yao(5, 5, 2); got != 3 {
		t.Errorf("Yao(all tuples) = %g, want ceil(5/2)=3", got)
	}
	if got := Yao(1, 100, 10); math.Abs(got-1) > 1e-9 {
		t.Errorf("Yao(1 tuple) = %g, want 1", got)
	}
	if Yao(0, 10, 2) != 0 {
		t.Error("Yao(0) != 0")
	}
}

func TestClusterSpanMatchesPaperEquation6(t *testing.T) {
	// The NSM+index query 1a cell of Table 3 decomposes into cluster spans:
	// 1 + span(1.6 platforms, k=11) + span(4.1 connections, k=11) +
	// span(7.5 sightseeings, k=4) = 5.96 — exactly the published value.
	got := 1 + ClusterSpan(1.6, 11) + ClusterSpan(4.1, 11) + ClusterSpan(7.5, 4)
	approx(t, "NSM+index q1a decomposition", got, 5.96, 0.005)
}

func TestClusterSpanBasics(t *testing.T) {
	approx(t, "span(1,k)", ClusterSpan(1, 10), 1, 0)
	approx(t, "span(k+1,k)", ClusterSpan(11, 10), 2, 0)
	approx(t, "span(0.5,k) clamps to one tuple", ClusterSpan(0.5, 10), 1, 0)
	if ClusterSpan(0, 10) != 0 || ClusterSpan(5, 0) != 0 {
		t.Error("degenerate spans")
	}
}

func TestClustersBoundaries(t *testing.T) {
	// i=1 degenerates to Equation 6 (up to the union's negligible overlap
	// correction for a single cluster).
	one := Clusters(1, 10, 1000, 10)
	eq6 := ClusterSpan(10, 10) // one cluster on a relation it does not fill
	approx(t, "Clusters(1)", one, eq6, 0.01)
	// g=1 degenerates to Equation 4.
	approx(t, "Clusters(g=1)", Clusters(50, 1, 200, 10), Bernstein(50, 200), 1e-9)
	// Saturation at m.
	approx(t, "Clusters saturates", Clusters(1e9, 5, 100, 10), 100, 1e-6)
}

func TestClustersMonotoneInClusters(t *testing.T) {
	f := func(a uint8) bool {
		i := float64(a%50) + 1
		return Clusters(i, 4, 500, 11) <= Clusters(i+1, 4, 500, 11)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistinctMatchesPaperEquation8(t *testing.T) {
	// §4's cache model: drawing 300*21.7 times from 1500 objects leaves
	// ~1480 distinct objects, which yields the 19.7 pages/loop of the DSM
	// query 2b cell.
	d := Distinct(1500, 300*21.73)
	approx(t, "distinct objects", d, 1480, 5)
	approx(t, "DSM q2b", d*4/300, 19.7, 0.15)
	// And the paper's explicit 0.387 root-page writes per loop for query
	// 3b under (DASDBS-)NSM: all 116 root pages are written once.
	dg := Distinct(1500, 300*16.7)
	approx(t, "NSM q3b writes", Bernstein(dg, 116)/300, 0.387, 0.005)
}

func TestDistinctBounds(t *testing.T) {
	if Distinct(100, 0) != 0 {
		t.Error("Distinct with no draws")
	}
	if got := Distinct(100, 1); math.Abs(got-1) > 1e-9 {
		t.Errorf("Distinct(100,1) = %g", got)
	}
	if got := Distinct(100, 1e9); math.Abs(got-100) > 1e-6 {
		t.Errorf("Distinct saturation = %g", got)
	}
	f := func(a, b uint16) bool {
		n1, n2 := float64(a%5000), float64(b%5000)
		if n1 > n2 {
			n1, n2 = n2, n1
		}
		d1, d2 := Distinct(1500, n1), Distinct(1500, n2)
		return d1 <= d2+1e-9 && d2 <= 1500
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedCost(t *testing.T) {
	approx(t, "eq1", WeightedCost(10, 1, 3, 12), 42, 0)
}

func TestLargePartial(t *testing.T) {
	// t objects, header + one data page each (the paper's query 2 pattern).
	approx(t, "eq5", LargePartial(21.7, 1, 1), 43.4, 1e-9)
	if LargePartial(0, 1, 1) != 0 {
		t.Error("no tuples must cost nothing")
	}
}
