package experiments

import (
	"complexobj/cobench"
	"complexobj/costmodel"
	"complexobj/internal/fanout"
	"complexobj/report"
)

// BufferPoint is one measurement of the buffer-size sweep: query 2b at the
// default database size under a given cache capacity.
type BufferPoint struct {
	Model       string
	BufferPages int
	Measured    float64
	BestCase    float64
	WorstCase   float64
	HitRatio    float64
}

// BufferSizes is the sweep axis (the paper fixes 1200 pages; the sweep
// shows the same §5.4 crossover from the other side).
var BufferSizes = []int{150, 300, 600, 1200, 2400, 4800}

// BufferSweep complements Figure 6: instead of growing the database past a
// fixed cache, it shrinks and grows the cache under the fixed 1500-object
// extension. The same mechanics appear: with a cache big enough for the
// working set every model sits at its best case; below that the direct
// models degrade toward the worst case first because their working set is
// p pages per touched object.
//
// The (buffer size, model) cells fan out over the suite's worker pool;
// the buffer size is a runtime knob of the view, not part of the base
// key, so the whole sweep runs on the matrix's frozen bases.
func (s *Suite) BufferSweep() ([]BufferPoint, error) {
	if s.bufferSweep != nil {
		return s.bufferSweep, nil
	}
	params, _, err := s.DerivedParams()
	if err != nil {
		return nil, err
	}
	baseOpts, err := s.storeOptions()
	if err != nil {
		return nil, err
	}
	wl := costmodel.Workload{
		N:        float64(s.cfg.Gen.N),
		Children: costmodel.PaperWorkload().Children,
		Grand:    costmodel.PaperWorkload().Grand,
		Loops:    float64(s.cfg.Workload.Loops),
	}
	points := make([]BufferPoint, len(BufferSizes)*len(fig5Models))
	err = fanout.Run(len(points), s.workers(), func(i int) error {
		bp := BufferSizes[i/len(fig5Models)]
		ki := i % len(fig5Models)
		k := fig5Models[ki]
		opts := baseOpts
		opts.BufferPages = bp
		res, err := s.runQueries(fig5Models[ki:ki+1], opts, s.cfg.Gen, s.cfg.Workload, cobench.Q2b)
		if err != nil {
			return err
		}
		m := res[0][cobench.Q2b]
		hit := 0.0
		if m.Fixes > 0 {
			hit = m.Hits / m.Fixes
		}
		est := costmodel.Estimate(kindToCostModel(k), params, wl)
		points[i] = BufferPoint{
			Model:       k.String(),
			BufferPages: bp,
			Measured:    m.Pages,
			BestCase:    est.Q2b,
			WorstCase:   est.Q2a,
			HitRatio:    hit,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.bufferSweep = points
	return points, nil
}

// RenderBufferSweep renders the buffer-size sweep, one table per model.
func RenderBufferSweep(points []BufferPoint) []*report.Table {
	var out []*report.Table
	for _, k := range fig5Models {
		t := &report.Table{
			Title:  "Extension: query 2b pages/loop vs buffer size, N=1500 (" + k.String() + ")",
			Header: []string{"buffer pages", "measured", "best case", "worst case", "hit ratio"},
			Notes: []string{
				"the dual of Figure 6: shrinking the cache under a fixed database reproduces the same overflow story",
			},
		}
		for _, p := range points {
			if p.Model != k.String() {
				continue
			}
			t.AddRow(report.Int(p.BufferPages), report.Num(p.Measured),
				report.Num(p.BestCase), report.Num(p.WorstCase), report.Num(p.HitRatio))
		}
		out = append(out, t)
	}
	return out
}
