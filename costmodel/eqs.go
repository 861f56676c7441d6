// Package costmodel implements the analytical disk-I/O cost model of the
// paper's §3 and §4: Equations 1-8 and the per-model, per-query page-I/O
// estimators that produce Table 3 and the best/worst-case curves of
// Figure 6. Equation 2's p enters as a layout constant (Params.DirectP),
// Equation 6's single cluster as ClusterSpan.
//
// The model is purely arithmetic — it has no dependency on the storage
// engine — and is parameterized by the physical layout constants of
// Table 2 (tuple sizes, tuples per page k, pages per tuple p, relation
// pages m), which can come either from the paper (PaperParams) or from a
// loaded database (the experiments package derives them from the engine's
// size reports).
//
// Two of the paper's equations are reconstructed: the derivations of
// Equation 5 (partial reads of large tuples) and Equation 7 (clusters of
// small tuples) live in a technical report [14] that is not available, and
// the printed forms are corrupted in the source text. The reconstructions
// below are derived from first principles and validated against every
// legible cell of Table 3 (see the package tests).
package costmodel

import "math"

// LargeEntire is Equation 3: retrieving t large tuples in their entirety
// by address costs t*p page accesses.
func LargeEntire(t, p float64) float64 { return t * p }

// Bernstein is Equation 4, the expected number of distinct pages touched
// when t tuples are drawn and the tuples are randomly distributed over m
// pages (Bernstein et al., SDD-1): m * (1 - (1 - 1/m)^t).
//
// The closed form treats the t draws as independent, which is the standard
// approximation of Yao's exact hypergeometric formula and is what the
// paper's numbers reproduce.
func Bernstein(t, m float64) float64 {
	if m <= 0 || t <= 0 {
		return 0
	}
	return m * (1 - math.Pow(1-1/m, t))
}

// Yao is the exact counterpart of Equation 4 for integer inputs: the
// expected number of pages touched when t distinct tuples are selected
// uniformly without replacement from n tuples stored k per page on
// m = ceil(n/k) pages (Yao 1977). Provided for validation; the estimators
// use Bernstein like the paper.
func Yao(t, n, k int) float64 {
	if t <= 0 || n <= 0 || k <= 0 {
		return 0
	}
	if t >= n {
		return math.Ceil(float64(n) / float64(k))
	}
	m := (n + k - 1) / k
	// E = m * (1 - C(n-k, t)/C(n, t)); computed in log space for stability.
	frac := 1.0
	for i := 0; i < t; i++ {
		frac *= float64(n-k-i) / float64(n-i)
		if frac <= 0 {
			frac = 0
			break
		}
	}
	return float64(m) * (1 - frac)
}

// ClusterSpan returns the expected number of pages spanned by one cluster
// of g consecutive tuples stored k per page, when the cluster's start
// position is uniform within a page: for integer g this is
// ceil(g/k) + ((g-1) mod k)/k; the continuous generalization used here is
// 1 + (g-1)/k. A cluster never spans more than ceil(g/k)+1 pages.
func ClusterSpan(g, k float64) float64 {
	if g <= 0 || k <= 0 {
		return 0
	}
	if g < 1 {
		g = 1
	}
	return 1 + (g-1)/k
}

// Clusters is the reconstruction of Equation 7: i clusters of g tuples
// each, randomly located on the m pages of a relation with k tuples per
// page. Each cluster spans ClusterSpan(g,k) pages in expectation; the
// overlap between randomly placed clusters is accounted for with the
// Bernstein union, i.e. the i*span page requests are treated as random
// draws over the m pages.
//
// (The paper's printed recursion is OCR-corrupted; this closed form agrees
// with its boundary behaviour: for i=1 it degenerates to Equation 6, for
// g=1 to Equation 4, and it saturates at m.)
func Clusters(i, g, m, k float64) float64 {
	if m <= 0 || i <= 0 {
		return 0
	}
	span := ClusterSpan(g, k)
	if span >= m {
		return m
	}
	return m * (1 - math.Pow(1-span/m, i))
}

// LargePartial is the reconstruction of Equation 5: retrieving only the
// used parts of t large tuples under DASDBS-DSM. Each access pays the
// header pages plus the expected number of data pages containing used
// bytes; usedPages already aggregates "the percentage of tuple-data that is
// not used, and the clustering of these data within the object" into the
// expected data-page count per object.
func LargePartial(t, headerPages, usedPages float64) float64 {
	if t <= 0 {
		return 0
	}
	return t * (headerPages + usedPages)
}

// Distinct is Equation 8: drawing nnum times with replacement from ntot
// objects, the expected number of objects drawn at least once is
// ntot * (1 - ((ntot-1)/ntot)^nnum). It drives every warm-cache ("b")
// estimate: only the first access of an object is a physical read when the
// cache is large enough.
func Distinct(ntot, nnum float64) float64 {
	if ntot <= 0 || nnum <= 0 {
		return 0
	}
	return ntot * (1 - math.Pow((ntot-1)/ntot, nnum))
}

// WeightedCost is Equation 1: the total device cost combining I/O calls
// and transferred pages with device-specific weights d1 (per-call latency,
// e.g. seek+rotation) and d2 (per-page transfer).
func WeightedCost(d1, d2, calls, pages float64) float64 {
	return d1*calls + d2*pages
}
