package costmodel

import "math"

// QueryEstimates holds the analytical page-I/O numbers for one storage
// model: queries 1a-1c are per object, 2a-3b per loop (the normalization
// of Table 3). NaN marks a query the model cannot run (pure NSM has no
// identifiers, so query 1a "is not relevant").
type QueryEstimates struct {
	Model Model
	Q1a   float64
	Q1b   float64
	Q1c   float64
	Q2a   float64
	Q2b   float64
	Q3a   float64
	Q3b   float64
}

// Estimate computes the Table 3 row of one storage model under the given
// layout parameters and workload. All estimates are best case: "Since we
// assumed a large cache, all estimates are best case" (§4); cache effects
// across loops are modelled with Equation 8 only (an object's pages are
// fetched once), never cache overflow.
func Estimate(m Model, p Params, w Workload) QueryEstimates {
	e := QueryEstimates{Model: m}
	opl := w.ObjectsPerLoop()
	nav := 1 + w.Children // objects whose children are resolved per loop
	// Distinct objects touched across all loops (Equation 8), by role.
	dAll := Distinct(w.N, w.Loops*opl)
	dNav := Distinct(w.N, w.Loops*nav)
	dGrand := Distinct(w.N, w.Loops*w.Grand)

	switch m {
	case DSM, DSMPrime:
		pp, mm := p.DirectP, p.DirectM
		if m == DSMPrime {
			pp, mm = p.DirectUsefulP, p.DirectUsefulM
		}
		e.Q1a = pp
		e.Q1b = mm
		e.Q1c = pp
		e.Q2a = LargeEntire(opl, pp)
		e.Q2b = LargeEntire(dAll, pp) / w.Loops
		e.Q3a = e.Q2a + LargeEntire(w.Grand, pp)
		e.Q3b = e.Q2b + LargeEntire(dGrand, pp)/w.Loops

	case DASDBSDSM:
		e.Q1a = p.DirectUsefulP
		e.Q1b = p.DirectUsefulM
		e.Q1c = p.DirectUsefulP
		// Queries 2/3 need only "the header page and a single data page"
		// per touched object (Equation 5 with one used cluster).
		e.Q2a = LargePartial(opl, 1, p.DirectNavP-1)
		e.Q2b = LargePartial(dAll, 1, p.DirectNavP-1) / w.Loops
		// The Table 3 estimate assumes the root data page is rewritten per
		// updated object; the measured §5.3 page-pool anomaly exceeds it.
		e.Q3a = e.Q2a + w.Grand
		e.Q3b = e.Q2b + dGrand/w.Loops

	case NSM, NSMIndex:
		st, pl, co, se := p.NSMStation, p.NSMPlatform, p.NSMConnection, p.NSMSightseeing
		// One object's tuples fetched by address: one page for the root
		// tuple plus the expected cluster span per sub-relation (Eq. 6);
		// paper value 5.96.
		fetchOne := 1 + ClusterSpan(pl.PerObject, pl.K) +
			ClusterSpan(co.PerObject, co.K) + ClusterSpan(se.PerObject, se.K)
		if m == NSM {
			e.Q1a = math.NaN()
			e.Q1b = p.NSMTotalM() // no addressing: scan all four relations
		} else {
			e.Q1a = fetchOne
			// Scan the root relation for the value selection (its page
			// with the match is already in), then fetch the rest by
			// address; paper value 121.
			e.Q1b = st.M + fetchOne - 1
		}
		e.Q1c = p.NSMTotalM() / w.N
		// Navigation touches root tuples of every object (Eq. 4) and the
		// connection clusters of the navigated objects (Eq. 7); pure NSM
		// additionally joins through the platform clusters.
		roots2a := Bernstein(opl, st.M)
		conns2a := Clusters(nav, co.PerObject, co.M, co.K)
		plats2a := Clusters(nav, pl.PerObject, pl.M, pl.K)
		rootsB := Bernstein(dAll, st.M)
		connsB := Clusters(dNav, co.PerObject, co.M, co.K)
		platsB := Clusters(dNav, pl.PerObject, pl.M, pl.K)
		if m == NSM {
			e.Q2a = roots2a + plats2a + conns2a
			e.Q2b = (rootsB + platsB + connsB) / w.Loops
		} else {
			e.Q2a = roots2a + conns2a
			e.Q2b = (rootsB + connsB) / w.Loops
		}
		// Updates rewrite root tuples; many share a page (Eq. 4 on the
		// root relation — the paper's 0.387 writes/loop).
		e.Q3a = e.Q2a + Bernstein(w.Grand, st.M)
		e.Q3b = e.Q2b + Bernstein(dGrand, st.M)/w.Loops

	case DASDBSNSM:
		st, co := p.DNSMStation, p.DNSMConnection
		e.Q1a = p.DNSMFetchPages()
		e.Q1b = st.M + p.DNSMFetchPages() - 1
		e.Q1c = p.DNSMTotalM() / w.N
		// Navigation: root tuples (Eq. 4 on the root relation) plus one
		// nested connection tuple per navigated object; platform and
		// sightseeing relations are never touched.
		e.Q2a = Bernstein(opl, st.M) + Bernstein(nav, co.M)
		e.Q2b = (Bernstein(dAll, st.M) + Bernstein(dNav, co.M)) / w.Loops
		e.Q3a = e.Q2a + Bernstein(w.Grand, st.M)
		e.Q3b = e.Q2b + Bernstein(dGrand, st.M)/w.Loops
	}
	return e
}

// EstimateAll returns the full Table 3: one row per model.
func EstimateAll(p Params, w Workload) []QueryEstimates {
	out := make([]QueryEstimates, 0, len(AllModels()))
	for _, m := range AllModels() {
		out = append(out, Estimate(m, p, w))
	}
	return out
}

// Scaled returns the parameter set for a database of n objects instead of
// base objects: every relation's page count scales linearly with the
// extension size while the per-tuple geometry (k, p) is unchanged. Used by
// the Figure 6 database-size sweep.
func (p Params) Scaled(n, base float64) Params {
	if base <= 0 || n <= 0 {
		return p
	}
	f := n / base
	scale := func(m float64) float64 { return math.Max(1, math.Round(m*f)) }
	q := p
	q.DirectM = scale(p.DirectM)
	q.DirectUsefulM = scale(p.DirectUsefulM)
	q.NSMStation.M = scale(p.NSMStation.M)
	q.NSMPlatform.M = scale(p.NSMPlatform.M)
	q.NSMConnection.M = scale(p.NSMConnection.M)
	q.NSMSightseeing.M = scale(p.NSMSightseeing.M)
	q.DNSMStation.M = scale(p.DNSMStation.M)
	q.DNSMPlatform.M = scale(p.DNSMPlatform.M)
	q.DNSMConnection.M = scale(p.DNSMConnection.M)
	q.DNSMSightseeing.M = scale(p.DNSMSightseeing.M)
	return q
}

// BestCaseQ2b returns the Figure 6 best-case line: the query 2b estimate
// for a database of n objects (loops = n/5), assuming no cache overflow.
func BestCaseQ2b(m Model, p Params, n int) float64 {
	w := WorkloadFor(n)
	scaled := p.Scaled(w.N, PaperWorkload().N)
	return Estimate(m, scaled, w).Q2b
}

// WorstCaseQ2b returns the Figure 6 worst-case line: "we may regard the
// analytically calculated value for query 2a ... as a worst case estimate
// for query 2b", i.e. no cache hits across loops at all.
func WorstCaseQ2b(m Model, p Params, n int) float64 {
	w := WorkloadFor(n)
	scaled := p.Scaled(w.N, PaperWorkload().N)
	return Estimate(m, scaled, w).Q2a
}
