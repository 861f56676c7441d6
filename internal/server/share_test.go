package server

import (
	"net/http/httptest"
	"path/filepath"
	"testing"

	"complexobj"
	"complexobj/cobench"
	"complexobj/internal/shard"
)

// ownersOf reports each served model's base owner count; omu is taken.
func ownersOf(s *Server) map[complexobj.ModelKind]int {
	s.omu.RLock()
	defer s.omu.RUnlock()
	out := make(map[complexobj.ModelKind]int, len(s.models))
	for k, m := range s.models {
		out[k] = m.base.Owners()
	}
	return out
}

// sharedBases counts the distinct bases behind the served models: a base
// n models share contributes 1/n for each of them.
func sharedBases(owners map[complexobj.ModelKind]int) float64 {
	n := 0.0
	for _, o := range owners {
		n += 1 / float64(o)
	}
	return n
}

// TestServerSharesStoredLayouts pins that a read-only server maps each
// stored layout once: five models served from a snapshot that stores
// DSM/DASDBS-DSM and NSM/NSM+index once each hold three bases, and every
// model still measures as the batch baseline does.
func TestServerSharesStoredLayouts(t *testing.T) {
	path, _ := buildSnapshot(t, 60)
	w := cobench.Workload{Loops: 15, Samples: 5, Seed: 1993}
	want := batchBaseline(t, path, w)
	srv, err := New(Config{Snapshot: path, BufferPages: 256, MaxViews: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	owners := ownersOf(srv)
	wantOwners := map[complexobj.ModelKind]int{
		complexobj.DSM: 2, complexobj.DASDBSDSM: 2,
		complexobj.NSM: 2, complexobj.NSMIndex: 2,
		complexobj.DASDBSNSM: 1,
	}
	for k, o := range wantOwners {
		if owners[k] != o {
			t.Errorf("%s: base has %d owners, want %d", k, owners[k], o)
		}
	}
	if n := sharedBases(owners); n != 3 {
		t.Errorf("five models hold %g bases, want 3", n)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	for _, k := range complexobj.AllModels() {
		for _, q := range []string{"1c", "2a", "3a"} {
			var got RunResponse
			getJSON(t, hs.Client(), runURL(hs.URL, k.String(), q, w), &got)
			got.ElapsedUS = 0
			if key := (AggKey{Model: k.String(), Query: q, Workload: got.Workload}); got != want[key] {
				t.Errorf("%s %s over a shared base diverges from the batch baseline", k, q)
			}
		}
	}
}

// TestServerReleaseKeepsSharedPartner pins the owner count across a shard
// handoff: DSM (shard 0) and DASDBS-DSM (shard 1) open in one batch and
// share a base; releasing shard 0 leaves DASDBS-DSM serving on it, and its
// /stats cells equal those of a server that only ever served DASDBS-DSM.
func TestServerReleaseKeepsSharedPartner(t *testing.T) {
	path, _ := buildSnapshot(t, 60)
	w := cobench.Workload{Loops: 15, Samples: 5, Seed: 1993}
	var names []string
	for _, k := range complexobj.AllModels() {
		names = append(names, k.String())
	}
	m, err := shard.Partition(names, 2, shard.StrategyExplicit+"DSM/DASDBS-DSM,NSM,NSM+index,DASDBS-NSM")
	if err != nil {
		t.Fatal(err)
	}
	mapPath := filepath.Join(t.TempDir(), "map.json")
	if err := m.Write(mapPath); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Snapshot: path, ShardMap: mapPath, Shards: []int{0, 1}, BufferPages: 256, MaxViews: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if o := ownersOf(srv); o[complexobj.DSM] != 2 || o[complexobj.DASDBSDSM] != 2 || sharedBases(o) != 3 {
		t.Fatalf("shards 0 and 1 opened in one batch hold owners %v, want DSM and DASDBS-DSM on one base", o)
	}
	control, err := New(Config{Snapshot: path, Models: []complexobj.ModelKind{complexobj.DASDBSDSM}, BufferPages: 256, MaxViews: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close()

	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	hc := httptest.NewServer(control.Handler())
	defer hc.Close()
	drive := func(url string) {
		for _, q := range cobench.AllQueries() {
			var got RunResponse
			getJSON(t, hs.Client(), runURL(url, complexobj.DASDBSDSM.String(), q.String(), w), &got)
		}
	}
	drive(hs.URL)
	drive(hc.URL)
	if _, err := srv.ReleaseShard(0); err != nil {
		t.Fatal(err)
	}
	if o := ownersOf(srv); o[complexobj.DASDBSDSM] != 1 || len(o) != 4 {
		t.Fatalf("after releasing shard 0: owners %v, want DASDBS-DSM alone on its base", o)
	}
	drive(hs.URL)
	drive(hc.URL)

	var got, ref StatsResponse
	getJSON(t, hs.Client(), hs.URL+"/stats", &got)
	getJSON(t, hc.Client(), hc.URL+"/stats", &ref)
	if a, b := counterCells(t, got), counterCells(t, ref); string(a) != string(b) {
		t.Errorf("DASDBS-DSM /stats after the release differ from a server of its own:\nshared: %s\nalone:  %s", a, b)
	}
	for _, c := range got.Cells {
		if c.Divergent || c.Count != 2 {
			t.Errorf("%s %s: count %d, divergent %t", c.Model, c.Query, c.Count, c.Divergent)
		}
	}
}

// TestDurableServerNeverShares pins that a -wal server opens every model
// on a base of its own, even where the snapshot stores two models once:
// each model's commits and checkpoints diverge.
func TestDurableServerNeverShares(t *testing.T) {
	path, _ := buildSnapshot(t, 40)
	srv, err := New(Config{Snapshot: path, BufferPages: 128, MaxViews: 2, WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	owners := ownersOf(srv)
	if len(owners) != 5 || sharedBases(owners) != 5 {
		t.Errorf("durable server owners %v, want five bases of one owner each", owners)
	}
}
