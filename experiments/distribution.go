package experiments

import (
	"fmt"
	"math"

	"complexobj/cobench"
	"complexobj/internal/store"
	"complexobj/internal/xrand"
	"complexobj/report"
)

// NodeBalance summarizes how evenly the navigation I/O of query 2b spreads
// over the nodes of a hypothetical shared-nothing cluster, when each
// complex object lives entirely on one node.
type NodeBalance struct {
	Extension string // "default" or "skew"
	Nodes     int
	// MeanPages and MaxPages are per-node page I/O totals over the whole
	// run; CV is the coefficient of variation (stddev/mean) across nodes.
	MeanPages float64
	MaxPages  float64
	CV        float64
	// HottestLoopPages is the largest single-loop page burst hitting one
	// node (tail latency proxy).
	HottestLoopPages float64
}

// DistributionAblation works the paper's closing §5.5 remark into an
// experiment: "in a distributed system the data skew might cause more
// effects ... For, with data skew the disk I/Os are likely to be less
// equally distributed over the nodes if we store a single object on a
// single node."
//
// Stations are placed on nodes round-robin (the paper's single-object-per-
// node clustering); the query 2b navigation trace then charges each
// touched object's pages — measured on a per-object basis from the DSM
// layout — to the owning node. The default and the skewed extension run
// the identical trace schedule, so differences are pure placement effects
// of the object-size and fan-out tails.
func (s *Suite) DistributionAblation(nodes int) ([]NodeBalance, error) {
	if nodes <= 1 {
		return nil, fmt.Errorf("experiments: need at least 2 nodes, got %d", nodes)
	}
	var out []NodeBalance
	for _, variant := range []struct {
		name string
		gen  cobench.Config
	}{
		{"default", s.cfg.Gen},
		{"skew", s.cfg.Gen.Skewed()},
	} {
		nb, err := s.nodeBalance(variant.name, variant.gen, nodes)
		if err != nil {
			return nil, err
		}
		out = append(out, nb)
	}
	return out, nil
}

func (s *Suite) nodeBalance(name string, gen cobench.Config, nodes int) (NodeBalance, error) {
	stations, release, err := s.extension(gen)
	if err != nil {
		return NodeBalance{}, err
	}
	defer release()
	// Per-object page footprint under direct storage: measure the loaded
	// layout rather than guessing from byte counts.
	opts, err := s.storeOptions()
	if err != nil {
		return NodeBalance{}, err
	}
	var perObject []float64
	err = s.withBase(store.DSM, gen, func(base *store.SharedBase) error {
		m, err := base.Open(opts)
		if err != nil {
			return err
		}
		defer m.Engine().Close()
		perObject, err = objectPages(m, len(stations))
		return err
	})
	if err != nil {
		return NodeBalance{}, err
	}
	loops := s.cfg.Workload.Loops
	if loops <= 0 {
		loops = cobench.LoopsFor(len(stations))
	}
	// The same deterministic root schedule the workload driver uses.
	rng := xrand.New(xrand.Mix(s.cfg.Workload.Seed, uint64(cobench.Q2b)+100))
	nodePages := make([]float64, nodes)
	loopNode := make([]float64, nodes)
	charge := func(obj int32) {
		loopNode[int(obj)%nodes] += perObject[obj]
	}
	hottest := 0.0
	for l := 0; l < loops; l++ {
		root := rng.Intn(len(stations))
		clear(loopNode)
		charge(int32(root))
		for _, p := range stations[root].Platforms {
			for _, c := range p.Conns {
				charge(c.OidConnection)
				for _, gp := range stations[c.OidConnection].Platforms {
					for _, g := range gp.Conns {
						charge(g.OidConnection)
					}
				}
			}
		}
		for n, v := range loopNode {
			nodePages[n] += v
			if v > hottest {
				hottest = v
			}
		}
	}
	var sum, sumSq, max float64
	for _, v := range nodePages {
		sum += v
		sumSq += v * v
		if v > max {
			max = v
		}
	}
	mean := sum / float64(nodes)
	variance := sumSq/float64(nodes) - mean*mean
	if variance < 0 {
		variance = 0
	}
	cv := 0.0
	if mean > 0 {
		cv = math.Sqrt(variance) / mean
	}
	return NodeBalance{
		Extension:        name,
		Nodes:            nodes,
		MeanPages:        mean,
		MaxPages:         max,
		CV:               cv,
		HottestLoopPages: hottest,
	}, nil
}

// objectPages returns the direct-storage page footprint of every object,
// probed with cold-cache single-object fetches.
func objectPages(m store.Model, n int) ([]float64, error) {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		if err := m.Engine().ColdCache(); err != nil {
			return nil, err
		}
		m.Engine().ResetStats()
		if _, err := m.FetchByAddress(i); err != nil {
			return nil, err
		}
		out[i] = float64(m.Engine().Stats().PagesRead)
	}
	return out, nil
}

// RenderDistribution renders the node-balance comparison.
func RenderDistribution(rows []NodeBalance) *report.Table {
	t := &report.Table{
		Title:  "Extension (§5.5 remark): query 2b I/O balance over a shared-nothing cluster",
		Header: []string{"EXTENSION", "nodes", "mean pages/node", "max pages/node", "CV", "hottest loop"},
		Notes: []string{
			"objects placed whole on nodes (round-robin); the skewed extension concentrates I/O",
			"into heavier per-loop bursts even though cluster-wide averages stay equal",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Extension, report.Int(r.Nodes), report.Num(r.MeanPages),
			report.Num(r.MaxPages), report.Num(r.CV), report.Num(r.HottestLoopPages))
	}
	return t
}
