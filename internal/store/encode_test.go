package store

import (
	"bytes"
	"testing"

	"complexobj/cobench"
	"complexobj/internal/heap"
	"complexobj/nf2"
)

// The oracle of every model's encoder: the records as they were built
// before the nf2.Appender — an nf2.Tuple tree per record, handed to
// Encode. It stays test-side, the way DecodeAttr stays beside Record.

func treeRoot(r cobench.RootRecord) nf2.Tuple {
	return nf2.NewTuple(nf2.IntValue(r.Key), nf2.IntValue(r.NoPlatform), nf2.IntValue(r.NoSeeing), nf2.StringValue(r.Name))
}

func treePlatform(p cobench.Platform, keys ...nf2.Value) nf2.Tuple {
	return nf2.NewTuple(append(keys, nf2.IntValue(p.Nr), nf2.IntValue(p.NoLine), nf2.IntValue(p.TicketCode), nf2.StringValue(p.Information))...)
}

func treeConnection(c cobench.Connection, keys ...nf2.Value) nf2.Tuple {
	return nf2.NewTuple(append(keys, nf2.IntValue(c.LineNr), nf2.IntValue(c.KeyConnection), nf2.LinkValue(c.OidConnection), nf2.StringValue(c.DepartureTimes))...)
}

func treeSightseeing(g cobench.Sightseeing, keys ...nf2.Value) nf2.Tuple {
	return nf2.NewTuple(append(keys, nf2.IntValue(g.Nr), nf2.StringValue(g.Description), nf2.StringValue(g.Location),
		nf2.StringValue(g.History), nf2.StringValue(g.Remarks))...)
}

func mustEncode(t *testing.T, tt *nf2.TupleType, tup nf2.Tuple) []byte {
	t.Helper()
	buf, err := tt.Encode(tup)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// treeComponents is direct.components by trees: root, platforms (nesting
// their connections), sightseeings.
func treeComponents(t *testing.T, s *cobench.Station) [][]byte {
	recs := [][]byte{mustEncode(t, RootType, treeRoot(s.Root()))}
	for _, p := range s.Platforms {
		conns := make([]nf2.Tuple, len(p.Conns))
		for j, c := range p.Conns {
			conns[j] = treeConnection(c)
		}
		tup := treePlatform(p)
		tup.Vals = append(tup.Vals, nf2.RelValue(conns))
		recs = append(recs, mustEncode(t, cobench.PlatformType, tup))
	}
	for _, g := range s.Seeings {
		recs = append(recs, mustEncode(t, cobench.SightseeingType, treeSightseeing(g)))
	}
	return recs
}

// treeDNSM is dnsm.tuples by trees: the four nested tuples by slot.
func treeDNSM(t *testing.T, s *cobench.Station) [4][]byte {
	pts := make([]nf2.Tuple, len(s.Platforms))
	cts := make([]nf2.Tuple, len(s.Platforms))
	for i, p := range s.Platforms {
		pts[i] = treePlatform(p, nf2.IntValue(int32(i+1)))
		inner := make([]nf2.Tuple, len(p.Conns))
		for j, c := range p.Conns {
			inner[j] = treeConnection(c)
		}
		cts[i] = nf2.NewTuple(nf2.IntValue(int32(i+1)), nf2.RelValue(inner))
	}
	gts := make([]nf2.Tuple, len(s.Seeings))
	for i, g := range s.Seeings {
		gts[i] = treeSightseeing(g)
	}
	recs := [4][]byte{dnsmStation: mustEncode(t, dnsmStationType, treeRoot(s.Root()))}
	for slot, rel := range [4][]nf2.Tuple{dnsmPlatform: pts, dnsmConnection: cts, dnsmSightseeing: gts} {
		if slot != dnsmStation {
			recs[slot] = mustEncode(t, dnsmTypes[slot], nf2.NewTuple(nf2.IntValue(s.Key), nf2.RelValue(rel)))
		}
	}
	return recs
}

// treeNSM is nsm.Load's inserts by trees: the flat tuples of s per
// relation, in insertion order.
func treeNSM(t *testing.T, s *cobench.Station) [4][][]byte {
	key := nf2.IntValue(s.Key)
	recs := [4][][]byte{{mustEncode(t, nsmStationType, treeRoot(s.Root()))}}
	for pi, p := range s.Platforms {
		own := nf2.IntValue(int32(pi + 1))
		recs[1] = append(recs[1], mustEncode(t, nsmPlatformType, treePlatform(p, key, own)))
		for _, c := range p.Conns {
			recs[2] = append(recs[2], mustEncode(t, nsmConnectionType, treeConnection(c, key, own)))
		}
	}
	for _, g := range s.Seeings {
		recs[3] = append(recs[3], mustEncode(t, nsmSightseeingType, treeSightseeing(g, key)))
	}
	return recs
}

// TestEncodersMatchTreeOracle: for every station of the default extension,
// the §5.5 skew and the Figure 5 MaxSeeing extremes, every model stores
// the bytes its tree-built records had, and every sizing function says
// what the encoder then wrote.
func TestEncodersMatchTreeOracle(t *testing.T) {
	def := cobench.DefaultConfig().WithN(400)
	for name, cfg := range map[string]cobench.Config{
		"default": def, "skewed": def.Skewed(), "maxSeeing0": def.WithMaxSeeing(0), "maxSeeing30": def.WithMaxSeeing(30),
	} {
		stations, err := cobench.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		direct := mustNew(DSM, Options{}).(*direct)
		nested := mustNew(DASDBSNSM, Options{}).(*dnsm)
		flat := mustNew(NSM, Options{}).(*nsm)
		for _, m := range []Model{direct, nested, flat} {
			defer m.Engine().Close()
		}
		if err := flat.Load(stations); err != nil {
			t.Fatal(err)
		}
		for i, s := range stations {
			comps, err := direct.components(s)
			if err != nil {
				t.Fatalf("%s: station %d: %v", name, i, err)
			}
			want := treeComponents(t, s)
			n, total := componentsSize(s)
			if len(comps) != len(want) || n != len(want) {
				t.Fatalf("%s: station %d: %d components, sized as %d, oracle %d", name, i, len(comps), n, len(want))
			}
			for ci, c := range comps {
				if !bytes.Equal(c.Data, want[ci]) {
					t.Fatalf("%s: station %d component %d:\n got %x\nwant %x", name, i, ci, c.Data, want[ci])
				}
				total -= len(c.Data)
			}
			if total != 0 {
				t.Fatalf("%s: station %d: componentsSize is off by %d bytes", name, i, total)
			}

			recs, err := nested.tuples(s)
			if err != nil {
				t.Fatalf("%s: station %d: %v", name, i, err)
			}
			sizes := dnsmSizes(s)
			for slot, wantRec := range treeDNSM(t, s) {
				if !bytes.Equal(recs[slot], wantRec) {
					t.Fatalf("%s: station %d nested tuple %d:\n got %x\nwant %x", name, i, slot, recs[slot], wantRec)
				}
				if sizes[slot] != len(recs[slot]) {
					t.Fatalf("%s: station %d nested tuple %d: sized %d, encoded %d", name, i, slot, sizes[slot], len(recs[slot]))
				}
			}

			rids := [4][]heap.RID{{flat.stationRID[i]}, flat.platRIDs[i], flat.connRIDs[i], flat.seeingRIDs[i]}
			for r, wantRecs := range treeNSM(t, s) {
				rel := flat.relations()[r]
				if len(rids[r]) != len(wantRecs) {
					t.Fatalf("%s: station %d: %d tuples in relation %d, oracle %d", name, i, len(rids[r]), r, len(wantRecs))
				}
				for j, rid := range rids[r] {
					err := rel.heap.View(rid, func(got []byte) error {
						if !bytes.Equal(got, wantRecs[j]) || len(got) != rel.tt.FlatSize() {
							t.Fatalf("%s: station %d relation %d tuple %d (flat size %d):\n got %x\nwant %x", name, i, r, j, rel.tt.FlatSize(), got, wantRecs[j])
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// TestLoadAllocBudgets: a load builds bytes, not trees. Encoding a station
// into a model's records allocates nothing once the model's encode buffer
// has held one (no tuple, no slice per platform or per connection);
// LoadBase costs O(1) allocations per station — the page buffers the load
// dirties and shares of the directory's and the buffer pool's slabs, which
// the stated per-station constants cover at the default fan-outs — and
// Generate a share of its chunks: the Stations are one array, their
// sub-object arrays and strings are cut from chunks of the extension.
func TestLoadAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race the counts are the detector's")
	}
	cfg := cobench.DefaultConfig().WithN(300)
	stations, err := cobench.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perStation := func(what string, budget float64, fn func() error) {
		t.Helper()
		got := testing.AllocsPerRun(3, func() {
			if err := fn(); err != nil {
				t.Fatal(err)
			}
		})
		if got > budget*float64(len(stations)) {
			t.Errorf("%s: %v allocations for %d stations, budget %v per station", what, got, len(stations), budget)
		}
	}
	perStation("Generate", 0.25, func() error {
		_, err := cobench.Generate(cfg)
		return err
	})
	direct := mustNew(DSM, Options{}).(*direct)
	perStation("direct.components", 0, func() error {
		for _, s := range stations {
			if _, err := direct.components(s); err != nil {
				return err
			}
		}
		return nil
	})
	nested := mustNew(DASDBSNSM, Options{}).(*dnsm)
	perStation("dnsm.tuples", 0, func() error {
		for _, s := range stations {
			if _, err := nested.tuples(s); err != nil {
				return err
			}
		}
		return nil
	})
	// Per station (measured: 0.47 direct, 2.94 NSM, 1.20 DASDBS-NSM), almost
	// all of it the page buffers a load dirties: the directories are
	// pre-sized tables, and NSM cuts its RID lists from the model's slab.
	for k, budget := range map[Kind]float64{DSM: 0.6, DASDBSDSM: 0.6, NSM: 3.5, NSMIndex: 3.5, DASDBSNSM: 1.5} {
		perStation("LoadBase "+k.String(), budget, func() error {
			base, err := LoadBase(k, Options{}, stations)
			if err != nil {
				return err
			}
			return base.Release()
		})
	}
}
