package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"complexobj"
	"complexobj/cobench"
	"complexobj/internal/server"
)

// cell is one (model, query) request shape of a served workload.
type cell struct {
	Model   complexobj.ModelKind
	Query   cobench.Query
	Loops   int
	Samples int
	Commit  bool
}

func (c cell) String() string { return fmt.Sprintf("%s/%s", c.Model, c.Query) }

// workloadDef describes one workload. Why is the one-line reason the
// workload exists (BENCHMARK.json carries the same text).
type workloadDef struct {
	Name string
	Why  string
	// Cells are cycled in order to form the op sequence; empty for the
	// `tables` workload, whose op is a whole reproduction run.
	Cells []cell
	// Clients is the closed-loop client count (callers that each wait
	// for their reply — the `cobench -clients` model).
	Clients int
	// RoundOps is the fixed op count of one round, sized so a round
	// takes a quarter of a second on 2 vCPUs (one op of `tables` takes a
	// whole one): short enough that the reference bursts on either side
	// see the same host the round did.
	RoundOps int
	// WAL arms the durable commit path of the served workloads.
	WAL bool
	// Setups is how many cold set-ups one run times; setup_s is the
	// fastest. A served set-up takes a quarter of a second, the `tables`
	// oracle two and a half, hence the different counts.
	Setups int
}

// seedPool is the number of distinct per-op workload seeds. Cells ×
// seedPool stays under the server's 4096-cell /stats cap, so /stats can
// referee every op for divergence.
const seedPool = 256

// checkpointBytes is the WAL size that triggers a checkpoint in
// `serve_commit`: the `coserve -checkpoint-mb` default, so checkpoints
// come as often as a deployed server runs them. At 130 KiB of log a
// commit that is one every 500 commits, eight or nine in a 20-second
// run; a run's figures are totals over all its rounds, so it does not
// matter which rounds they fall into.
const checkpointBytes = 64 << 20

func workloads() []workloadDef {
	all := complexobj.AllModels()
	var point, scan, commit []cell
	for _, k := range all {
		if k != complexobj.NSM { // pure NSM has no address access
			point = append(point, cell{Model: k, Query: cobench.Q1a, Samples: 1})
		}
	}
	for _, k := range all {
		point = append(point, cell{Model: k, Query: cobench.Q2a, Samples: 1})
	}
	for _, k := range all {
		scan = append(scan, cell{Model: k, Query: cobench.Q1c})
	}
	for _, k := range all {
		scan = append(scan, cell{Model: k, Query: cobench.Q2b, Loops: 300})
	}
	for _, k := range all {
		commit = append(commit, cell{Model: k, Query: cobench.Q3a, Samples: 1, Commit: true})
	}
	return []workloadDef{
		{
			Name:     "tables",
			Why:      "the reproduction itself: generate, load five store models, every query and sweep, render; no HTTP, no WAL",
			Clients:  1,
			RoundOps: 1,
			Setups:   3,
		},
		{
			Name:     "serve_point",
			Why:      "/run 1a+2a, samples=1: storage does little, so HTTP/JSON, admission, view acquire/recycle and metrics are the work",
			Cells:    point,
			Clients:  2,
			RoundOps: 5000,
			Setups:   5,
		},
		{
			Name:     "serve_scan",
			Why:      "/run 1c+2b: each op walks more pages than the pool holds, so buffer, device, decode and store models are the work",
			Cells:    scan,
			Clients:  2,
			RoundOps: 60,
			Setups:   5,
		},
		{
			Name:     "serve_commit",
			Why:      "/run 3a commit=1 on a WAL-armed server: the same layers used for writes: promote, WAL fsync, stale views, checkpoints",
			Cells:    commit,
			Clients:  2,
			RoundOps: 60,
			WAL:      true,
			Setups:   5,
		},
	}
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// splitmix64 is the benchmark's own generator, so the op sequence depends
// on nothing but -seed and this file.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// op is one request of a served workload's sequence.
type op struct {
	Cell int    // index into the workload's cells
	Seed uint64 // the workload seed the request carries
}

// opSequence is the deterministic, unbounded op sequence of a served
// workload: op i hits cell i mod len(cells) with a workload seed drawn
// from a pool of seedPool values, both derived from the benchmark seed.
type opSequence struct {
	seed  uint64
	cells int
	pool  [seedPool]uint64
}

// newOpSequence derives the seed pool from seed: candidate j is a mix of
// (seed, j), and the pool is the first seedPool candidates that accept
// lets through (nil: all of them).
func newOpSequence(seed uint64, cells int, accept func(workloadSeed uint64) (bool, error)) (*opSequence, error) {
	s := &opSequence{seed: seed, cells: cells}
	for i, j := 0, uint64(0); i < len(s.pool); j++ {
		if j == 64*seedPool {
			return nil, fmt.Errorf("seed %d: only %d of %d candidate workload seeds are usable", seed, i, j)
		}
		// 31 bits keep the seeds readable in URLs and /stats.
		c := splitmix64(seed^j<<32) >> 33
		if accept != nil {
			ok, err := accept(c)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		s.pool[i] = c
		i++
	}
	return s, nil
}

// slot returns the pool slot op i draws its seed from.
func (s *opSequence) slot(i int) int {
	return int(splitmix64(s.seed+0x632be59bd9b4e019*uint64(i+1)) % seedPool)
}

func (s *opSequence) at(i int) op {
	return op{Cell: i % s.cells, Seed: s.pool[s.slot(i)]}
}

// hash fingerprints the first n ops; same seed, same hash.
func (s *opSequence) hash(n int) string {
	h := sha256.New()
	for i := 0; i < n; i++ {
		o := s.at(i)
		fmt.Fprintf(h, "%d:%d;", o.Cell, o.Seed)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// workload is the cell's run parameters under one workload seed: the
// paper's defaults wherever the cell does not say otherwise.
func (c cell) workload(seed uint64) cobench.Workload {
	w := cobench.DefaultWorkload()
	w.Seed = seed
	if c.Loops != 0 {
		w.Loops = c.Loops
	}
	if c.Samples != 0 {
		w.Samples = c.Samples
	}
	return w
}

// runSpec renders the wire form of one op.
func (c cell) runSpec(seed uint64) server.RunSpec {
	spec := server.RunSpecFor(c.Model, c.Query, c.workload(seed))
	if c.Commit {
		spec.Commit = "1"
	}
	return spec
}
