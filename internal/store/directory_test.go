package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"complexobj/cobench"
	"complexobj/internal/disk"
	"complexobj/internal/iostat"
)

// TestDirectoryBlobGolden pins the bytes of every kind's directory blob,
// which .codb files, checkpoints and WAL markers carry: the SHA-256 of
// SnapshotMeta after loading a fixed extension, and again after a scripted
// UpdateObject sequence — an object grown past its page run, then shrunk
// back to a small object, another relocated by growth, a third rekeyed.
// The constants were taken at the parent of the one-directory refactor.
func TestDirectoryBlobGolden(t *testing.T) {
	want := map[Kind][2]string{
		DSM:       {"83a4bf2fcb786eeb894c0b41533b1d555428026232a1e44dd89f9c201d7d36ac", "3f13a80da6dcd3f8f716fc0cb35442716804caa91c051c88b597376d6f773058"},
		DASDBSDSM: {"83a4bf2fcb786eeb894c0b41533b1d555428026232a1e44dd89f9c201d7d36ac", "3f13a80da6dcd3f8f716fc0cb35442716804caa91c051c88b597376d6f773058"},
		NSM:       {"4a7c34f19f47fa169c247eee73c73699e07dcb3065d82598923e6c645e4e0819", "3f06ae8f12786390888ac9f7c4ae2a4e142c330390e8efb586fede61ca307f8a"},
		NSMIndex:  {"4a7c34f19f47fa169c247eee73c73699e07dcb3065d82598923e6c645e4e0819", "3f06ae8f12786390888ac9f7c4ae2a4e142c330390e8efb586fede61ca307f8a"},
		DASDBSNSM: {"5aab65458ecd144fc389062c2d75a7b9618a77ba3f991926c7b4b40aedd606aa", "5329e873d8f02e0eb6add32994b680d8206b988739e010463b7063077067fe99"},
	}
	stations := testExtension(t, 40)
	script := []struct {
		i      int
		mutate func(s *cobench.Station) error
	}{
		{3, func(s *cobench.Station) error { // grow past the page run
			for j := 0; j < 25; j++ {
				s.Seeings = append(s.Seeings, cobench.Sightseeing{Nr: int32(100 + j), Description: "grown", Location: "here"})
			}
			return nil
		}},
		{3, func(s *cobench.Station) error { // shrink back to a small object
			s.Seeings, s.Platforms = nil, s.Platforms[:min(1, len(s.Platforms))]
			return nil
		}},
		{7, func(s *cobench.Station) error { // relocate
			for j := 0; j < 5; j++ {
				s.Seeings = append(s.Seeings, cobench.Sightseeing{Nr: int32(200 + j), Remarks: "moved"})
			}
			return nil
		}},
		{11, func(s *cobench.Station) error { s.Key = 1 << 20; return nil }}, // change a key
	}
	digest := func(m Model) string {
		meta, err := m.SnapshotMeta()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(meta)
		return hex.EncodeToString(sum[:])
	}
	for _, k := range AllKinds() {
		m := loadModel(t, k, stations)
		got := [2]string{digest(m)}
		for _, step := range script {
			if err := m.UpdateObject(step.i, step.mutate); err != nil {
				t.Fatalf("%s: UpdateObject(%d): %v", k, step.i, err)
			}
		}
		if err := m.Flush(); err != nil {
			t.Fatal(err)
		}
		got[1] = digest(m)
		if got != want[k] {
			t.Errorf("%s: directory blob SHA-256 after load, after updates = %q, want %q", k, got, want[k])
		}
		m.Engine().Close()
	}
}

// scanStations reads the view's whole extension (a scan lends one Station,
// so each is cloned to outlive the view's next call).
func scanStations(t *testing.T, v *View) []*cobench.Station {
	t.Helper()
	out := make([]*cobench.Station, v.NumObjects())
	if err := v.ScanAll(func(i int, s *cobench.Station) error { out[i] = s.Clone(); return nil }); err != nil {
		t.Fatal(err)
	}
	return out
}

func sameStations(a, b []*cobench.Station) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestDirectoryUnchangedIsTrue is the differential test of the shared
// directory: seeded random sequences of UpdateRoots, UpdateObject (growing,
// shrinking, key-changing, in place, and onto a key another object holds),
// Commit, Recycle and Rebase run over two views of one base — for the DSM
// layout one view of each kind that shares it — and after every step two
// oracles hold:
//
//   - the encoder: a view that reports its directory unchanged encodes,
//     byte for byte, the blob of the generation it is attached to (so
//     skipping the encode, the log and the copy at commit loses nothing);
//     after a commit the base's blob is what the committing view encodes,
//     whichever path the commit took; after Recycle a view encodes its own
//     generation's blob, after Rebase the landed generation's;
//   - the logical oracle: a clone-and-mutate shadow of the generated
//     stations per generation, and per view its generation's shadow plus the
//     view's own uncommitted writes, mutated exactly as the views are. Every
//     view reads its shadow through every path — ScanAll, FetchByAddress
//     (not on NSM), FetchByKey of a live key, Navigate, ReadRoot — and a key
//     no object of the view holds any longer is an error on every model. So
//     two views attached to one generation stay independent, and generation
//     0 is the generator's extension, not whatever the views happen to read.
//
// A duplicate key is refused with ErrDuplicateKey and changes nothing:
// neither the view's directory, nor a frame, nor an overlay page.
func TestDirectoryUnchangedIsTrue(t *testing.T) {
	stations := testExtension(t, 30)
	for _, k := range AllKinds() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", k, seed), func(t *testing.T) {
				base, err := LoadBase(k, Options{}, stations)
				if err != nil {
					t.Fatal(err)
				}
				defer base.Release()
				// A loaded base encodes its blob when first asked: ask before
				// any view could write the tables it is encoded from.
				base.Meta()
				sibling := k
				switch k { // the other kind of a shared layout
				case DSM:
					sibling = DASDBSDSM
				case DASDBSDSM:
					sibling = DSM
				}
				var views [2]*View
				for i, vk := range []Kind{k, sibling} {
					if views[i], err = base.NewViewAs(vk, Options{BufferPages: 64}); err != nil {
						t.Fatal(err)
					}
					defer views[i].Close()
				}

				// shadows[g] is what generation g holds by the oracle; mine[v]
				// is what view v holds. Objects are shared between the slices
				// until edit clones the one a step writes.
				shadows := map[uint64][]*cobench.Station{0: stations}
				mine := [2][]*cobench.Station{slices.Clone(stations), slices.Clone(stations)}
				edit := func(vi, i int) *cobench.Station {
					s := mine[vi][i].Clone()
					mine[vi][i] = s
					return s
				}
				var retired []int32 // keys an UpdateObject moved away from
				rng := rand.New(rand.NewSource(seed))
				nextKey := int32(1 << 20)

				encode := func(v *View) []byte {
					meta, err := v.m.SnapshotMeta()
					if err != nil {
						t.Fatal(err)
					}
					return meta
				}
				// check holds a view to its generation's blob whenever it claims
				// the directory unchanged.
				check := func(step int, what string, v *View) {
					t.Helper()
					if !v.m.dirChanged() && !bytes.Equal(encode(v), blobOf(t, v)) {
						t.Fatalf("step %d, %s: %s view on generation %d reports its directory unchanged, yet encodes a different blob",
							step, what, v.kind, v.Gen())
					}
				}
				// landed holds a freshly reset view to generation g's blob and
				// resets its shadow to the generation's.
				landed := func(step int, what string, vi int) {
					t.Helper()
					v := views[vi]
					if v.m.dirChanged() {
						t.Fatalf("step %d, %s: a reset %s view reports a changed directory", step, what, v.kind)
					}
					if !bytes.Equal(encode(v), blobOf(t, v)) {
						t.Fatalf("step %d, %s: %s view does not encode generation %d's blob", step, what, v.kind, v.Gen())
					}
					mine[vi] = slices.Clone(shadows[v.Gen()])
				}
				// verify reads view vi's shadow through every path: the whole
				// extension by scan, objects i and j by each point path.
				verify := func(step int, what string, vi, i, j int) {
					t.Helper()
					v, want := views[vi], mine[vi]
					fail := func(format string, args ...any) {
						t.Helper()
						t.Fatalf("step %d, %s: %s view on generation %d: %s", step, what, v.kind, v.Gen(), fmt.Sprintf(format, args...))
					}
					if !sameStations(scanStations(t, v), want) {
						fail("ScanAll differs from the oracle")
					}
					for _, o := range []int{i, j} {
						w := want[o]
						if got, err := v.FetchByAddress(o); v.kind == NSM {
							if !errors.Is(err, ErrNoAddressAccess) {
								fail("pure NSM FetchByAddress(%d) = %v", o, err)
							}
						} else if err != nil || !got.Equal(w) {
							fail("FetchByAddress(%d) = %v, %v", o, got, err)
						}
						if got, err := v.FetchByKey(w.Key); err != nil || !got.Equal(w) {
							fail("FetchByKey(%d) of object %d = %v, %v", w.Key, o, got, err)
						}
						root, kids, err := v.Navigate(o)
						if err != nil || root != w.Root() || !slices.Equal(kids, w.Children()) {
							fail("Navigate(%d) = %v, %v, %v; want %v, %v", o, root, kids, err, w.Root(), w.Children())
						}
						if root, err := v.ReadRoot(o); err != nil || root != w.Root() {
							fail("ReadRoot(%d) = %v, %v", o, root, err)
						}
					}
					live := make(map[int32]bool, len(want))
					for _, s := range want {
						live[s.Key] = true
					}
					for _, key := range retired {
						if !live[key] {
							if s, err := v.FetchByKey(key); err == nil {
								fail("FetchByKey(%d), a retired key, found %v", key, s)
							}
							break
						}
					}
				}
				// state is what a refused write must leave as it found it.
				state := func(v *View) string {
					cs, _ := disk.COWStatsOf(v.eng.Dev.Backend())
					return fmt.Sprintf("directory changed %v, %d dirty frames, %d overlay pages, %d pages",
						v.m.dirChanged(), v.eng.Pool.DirtyLen(), cs.OverlayPages, v.eng.Dev.NumPages())
				}

				for step := 0; step < 120; step++ {
					vi := step % 2
					if rng.Intn(3) == 0 {
						vi = 1 - vi
					}
					v, other := views[vi], views[1-vi]
					i := rng.Intn(len(stations))
					var what string
					switch op := rng.Intn(10); {
					case op < 2: // query 3a's shape: fixed-width root stamps
						what = "UpdateRoots"
						idxs := []int32{int32(i), int32(rng.Intn(len(stations)))}
						name := fmt.Sprintf("stamp %d", step)
						err = v.UpdateRoots(idxs, func(_ int32, r *cobench.RootRecord) { r.Name = name })
						if err == nil {
							for _, idx := range idxs {
								edit(vi, int(idx)).Name = name
							}
						}
						check(step, what, v)
					case op < 6:
						var mutate func(s *cobench.Station)
						switch rng.Intn(5) {
						case 0:
							what = "growing UpdateObject"
							n, oid := 1+rng.Intn(25), int32(rng.Intn(len(stations)))
							mutate = func(s *cobench.Station) {
								for j := n; j > 0; j-- {
									s.Seeings = append(s.Seeings, cobench.Sightseeing{Nr: int32(500 + j), Description: "grown", Remarks: "r"})
								}
								s.Platforms = append(s.Platforms, cobench.Platform{Nr: 99, Information: "grown",
									Conns: []cobench.Connection{{LineNr: 1, OidConnection: oid}}})
							}
						case 1:
							what = "shrinking UpdateObject"
							mutate = func(s *cobench.Station) {
								s.Seeings = s.Seeings[:len(s.Seeings)/2]
								s.Platforms = s.Platforms[:(len(s.Platforms)+1)/2]
							}
						case 2:
							what = "key-changing UpdateObject"
							key := nextKey
							nextKey++
							mutate = func(s *cobench.Station) { s.Key = key }
						case 3:
							what = "in-place UpdateObject"
							name := fmt.Sprintf("renamed %d", step)
							mutate = func(s *cobench.Station) { s.Name = name }
						default:
							what = "duplicate-key UpdateObject"
							dup := mine[vi][(i+1+rng.Intn(len(stations)-1))%len(stations)].Key
							before := state(v)
							err = v.m.UpdateObject(i, func(s *cobench.Station) error { s.Key = dup; return nil })
							if !errors.Is(err, ErrDuplicateKey) {
								t.Fatalf("step %d: moving object %d onto key %d, held by another object: %v, want ErrDuplicateKey", step, i, dup, err)
							}
							if after := state(v); after != before {
								t.Fatalf("step %d: a refused UpdateObject changed the view: %s, before %s", step, after, before)
							}
							err = nil
						}
						if mutate != nil {
							err = v.m.UpdateObject(i, func(s *cobench.Station) error { mutate(s); return nil })
							if err == nil {
								s := edit(vi, i)
								if what == "key-changing UpdateObject" {
									retired = append(retired, s.Key)
								}
								mutate(s)
								s.NoPlatform, s.NoSeeing = int32(len(s.Platforms)), int32(len(s.Seeings))
								err = v.Flush()
							}
						}
						check(step, what, v)
						// The sibling attached to the same tables saw none of it.
						check(step, "sibling after "+what, other)
					case op < 8:
						what = "Commit"
						if v.Gen() != base.Gen() { // a commit is built on the current generation
							if err = v.Rebase(); err != nil {
								break
							}
							landed(step, "Rebase before Commit", vi)
						}
						var res CommitResult
						res, err = v.Commit(nil)
						if err == nil {
							if !bytes.Equal(base.Meta(), encode(v)) {
								t.Fatalf("step %d: generation %d's blob is not what the committing %s view encodes (directory changed: %v)",
									step, res.Gen, v.kind, v.m.dirChanged())
							}
							if _, seen := shadows[res.Gen]; !seen {
								shadows[res.Gen] = slices.Clone(mine[vi])
							}
						}
					case op < 9:
						what = "Recycle"
						if _, err = v.Recycle(); err == nil {
							landed(step, what, vi)
						}
					default:
						what = "Rebase"
						if err = v.Rebase(); err == nil {
							if v.Gen() != base.Gen() {
								t.Fatalf("step %d: rebased onto generation %d, base is at %d", step, v.Gen(), base.Gen())
							}
							landed(step, what, vi)
						}
					}
					if err != nil {
						t.Fatalf("step %d, %s: %v", step, what, err)
					}
					j := rng.Intn(len(stations))
					verify(step, what, vi, i, j)
					verify(step, what, 1-vi, i, j)
				}
			})
		}
	}
}

// blobOf returns the blob of the generation v landed on.
func blobOf(t *testing.T, v *View) []byte {
	t.Helper()
	meta, err := v.st.dir.blob()
	if err != nil {
		t.Fatal(err)
	}
	return meta
}

// TestStreamedScanMatchesShadow is the seeded shadow check of NSM's
// streamed scan. Seeded sequences of UpdateRoots and UpdateObject
// (growing, shrinking, rekeying) run on a view of each NSM kind, each
// sequence ending with a structural update of object 0, so its sightseeing
// tuples land behind every other object's and it completes last. After
// each sequence, ScanAll must hand out the shadow object for object, in
// ascending order, on the updated view and — once it has committed — on
// two fresh views of the new generation, one on the staging the updated
// view warmed and one on its own; those two must count the same I/O, each
// page of the four relations fixed and read once.
func TestStreamedScanMatchesShadow(t *testing.T) {
	stations := testExtension(t, 40)
	for _, k := range []Kind{NSM, NSMIndex} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", k, seed), func(t *testing.T) {
				base, err := LoadBase(k, Options{}, stations)
				if err != nil {
					t.Fatal(err)
				}
				defer base.Release()
				stages := new(ScanStages)
				v, err := base.NewViewAs(k, Options{BufferPages: 64, Scans: stages})
				if err != nil {
					t.Fatal(err)
				}
				defer v.Close()
				mine := slices.Clone(stations)
				rng := rand.New(rand.NewSource(seed))
				nextKey := int32(1 << 20)
				// scan reads w's extension, failing on an object out of order.
				scan := func(w *View) []*cobench.Station {
					t.Helper()
					var out []*cobench.Station
					err := w.ScanAll(func(i int, s *cobench.Station) error {
						if i != len(out) {
							return fmt.Errorf("object %d handed out after %d objects", i, len(out))
						}
						out = append(out, s.Clone())
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					return out
				}
				structural := func(i int) (string, func(s *cobench.Station)) {
					switch rng.Intn(3) {
					case 0:
						n := 1 + rng.Intn(20)
						return "grow", func(s *cobench.Station) {
							for j := n; j > 0; j-- {
								s.Seeings = append(s.Seeings, cobench.Sightseeing{Nr: int32(700 + j), Description: "grown", History: "h"})
							}
							s.Platforms = append(s.Platforms, cobench.Platform{Nr: 7, Information: "grown",
								Conns: []cobench.Connection{{LineNr: 2, OidConnection: int32(i)}}})
						}
					case 1:
						return "shrink", func(s *cobench.Station) {
							s.Seeings = s.Seeings[:len(s.Seeings)/2]
							s.Platforms = s.Platforms[:(len(s.Platforms)+1)/2]
						}
					default:
						key := nextKey
						nextKey++
						return "rekey", func(s *cobench.Station) { s.Key = key }
					}
				}
				for seq := 0; seq < 3; seq++ {
					var ops []string
					for step := 0; step < 10; step++ {
						i := rng.Intn(len(stations))
						if step == 9 {
							i = 0
						}
						if step < 9 && rng.Intn(3) == 0 {
							name := fmt.Sprintf("stamp %d.%d", seq, step)
							if err := v.UpdateRoots([]int32{int32(i)}, func(_ int32, r *cobench.RootRecord) { r.Name = name }); err != nil {
								t.Fatal(err)
							}
							mine[i] = mine[i].Clone()
							mine[i].Name = name
							ops = append(ops, fmt.Sprintf("roots(%d)", i))
							continue
						}
						what, mutate := structural(i)
						if err := v.Model().UpdateObject(i, func(s *cobench.Station) error { mutate(s); return nil }); err != nil {
							t.Fatal(err)
						}
						s := mine[i].Clone()
						mutate(s)
						s.NoPlatform, s.NoSeeing = int32(len(s.Platforms)), int32(len(s.Seeings))
						mine[i] = s
						ops = append(ops, fmt.Sprintf("%s(%d)", what, i))
					}
					if err := v.Flush(); err != nil {
						t.Fatal(err)
					}
					if !sameStations(scan(v), mine) {
						t.Fatalf("sequence %d %v: the updated view's scan differs from the shadow", seq, ops)
					}
					if _, err := v.Commit(nil); err != nil {
						t.Fatal(err)
					}
					var stats [2]iostat.Stats
					for j, scans := range []*ScanStages{stages, nil} {
						w, err := base.NewViewAs(k, Options{Scans: scans})
						if err != nil {
							t.Fatal(err)
						}
						if !sameStations(scan(w), mine) {
							t.Fatalf("sequence %d %v: a fresh view's scan differs from the shadow", seq, ops)
						}
						stats[j] = w.Engine().Stats()
						pages := 0
						for _, r := range w.Model().Sizes().Relations {
							pages += r.M
						}
						if s := stats[j]; s.BufferFixes != int64(pages) || s.PagesRead != int64(pages) || s.ReadCalls != int64(pages) {
							t.Fatalf("sequence %d: cold scan fixed %d pages, read %d in %d calls; the relations have %d",
								seq, s.BufferFixes, s.PagesRead, s.ReadCalls, pages)
						}
						w.Close()
					}
					if stats[0] != stats[1] {
						t.Fatalf("sequence %d: a scan on a warm staging counted %+v, on a fresh one %+v", seq, stats[0], stats[1])
					}
					if err := v.Rebase(); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}
