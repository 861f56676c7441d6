package costmodel

import (
	"math"
	"testing"
)

func TestEstimateCallsDirect(t *testing.T) {
	p, w := PaperParams(), PaperWorkload()
	dsm := EstimateCalls(DSM, p, w)
	// Two calls per object: header + data run.
	approx(t, "DSM 1a calls", dsm.Q1a, 2, 0)
	approx(t, "DSM 1b calls", dsm.Q1b, 3000, 0.5)
	approx(t, "DSM 1c calls", dsm.Q1c, 2, 0)
	// Queries 2: 2 calls per distinct object (the warm loop amortizes).
	pages := Estimate(DSM, p, w)
	// Pages per call ≈ p/2 = 2 for the paper's 4-page objects, the §5.2
	// observation "about 2 pages are read per I/O call".
	ratio := pages.Q2b / dsm.Q2b
	if math.Abs(ratio-2) > 0.05 {
		t.Errorf("DSM pages per call = %.2f, want ~2", ratio)
	}
	// Write calls: batched replace adds ~G calls per loop for 3a.
	approx(t, "DSM 3a - 2a calls", dsm.Q3a-dsm.Q2a, w.Grand, 1e-9)
}

func TestEstimateCallsWriteThroughAnomaly(t *testing.T) {
	p, w := PaperParams(), PaperWorkload()
	ddsm := EstimateCalls(DASDBSDSM, p, w)
	dsm := EstimateCalls(DSM, p, w)
	// The write-through pool pays one call per update operation every
	// loop; the batched replace amortizes across loops (Eq. 8).
	ddsmWrites := ddsm.Q3b - ddsm.Q2b
	dsmWrites := dsm.Q3b - dsm.Q2b
	if ddsmWrites <= dsmWrites {
		t.Errorf("write-through calls %.2f not above batched %.2f", ddsmWrites, dsmWrites)
	}
	approx(t, "DASDBS-DSM 3b write calls", ddsmWrites, w.Grand, 1e-9)
}

func TestEstimateCallsNormalizedEqualsPages(t *testing.T) {
	p, w := PaperParams(), PaperWorkload()
	for _, m := range []Model{NSM, NSMIndex, DASDBSNSM} {
		calls := EstimateCalls(m, p, w)
		pages := Estimate(m, p, w)
		for _, q := range []string{"1b", "1c", "2a", "2b", "3a", "3b"} {
			c, _ := calls.ByQuery(q)
			pg, _ := pages.ByQuery(q)
			if math.Abs(c-pg) > 1e-9 {
				t.Errorf("%s %s: calls %.3f != pages %.3f (one page per call)", m, q, c, pg)
			}
		}
	}
	if !math.IsNaN(EstimateCalls(NSM, p, w).Q1a) {
		t.Error("NSM 1a calls should be NaN")
	}
}

func TestEstimateAllCalls(t *testing.T) {
	rows := EstimateAllCalls(PaperParams(), PaperWorkload())
	if len(rows) != len(AllModels()) {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		if v, _ := r.ByQuery("2b"); !(v > 0) && r.Model != NSM {
			t.Errorf("%s 2b calls = %g", r.Model, v)
		}
	}
}

func TestEstimateCostOrderingsEraDependence(t *testing.T) {
	p, w := PaperParams(), PaperWorkload()
	// cost folds a model's call and page estimates of one query into
	// Equation 1 for a device with per-call cost d1 and per-page cost d2.
	cost := func(m Model, q string, d1, d2 float64) float64 {
		calls, _ := EstimateCalls(m, p, w).ByQuery(q)
		pages, _ := Estimate(m, p, w).ByQuery(q)
		return WeightedCost(d1, d2, calls, pages)
	}
	// On a seek-dominated 1990 disk, pure NSM's one-call-per-page value
	// query costs more than DSM's batched scan despite fewer pages.
	if nsm, dsm := cost(NSM, "1b", 20, 2), cost(DSM, "1b", 20, 2); nsm <= dsm {
		t.Errorf("1990 disk: NSM 1b %.0f <= DSM %.0f", nsm, dsm)
	}
	// On flash the page ordering dominates and NSM's fewer pages win.
	if nsm, dsm := cost(NSM, "1b", 0.02, 0.01), cost(DSM, "1b", 0.02, 0.01); nsm >= dsm {
		t.Errorf("flash: NSM 1b %.2f >= DSM %.2f", nsm, dsm)
	}
	// The navigation winner is era-independent.
	for _, dev := range [][2]float64{{20, 2}, {0.02, 0.01}} {
		if dnsm, dsm := cost(DASDBSNSM, "2b", dev[0], dev[1]), cost(DSM, "2b", dev[0], dev[1]); dnsm >= dsm {
			t.Errorf("d1=%.2f: DASDBS-NSM 2b %.2f >= DSM %.2f", dev[0], dnsm, dsm)
		}
	}
}
