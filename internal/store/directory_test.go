package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"complexobj/cobench"
)

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
// shrinking, key-changing, in place), Commit, Recycle and Rebase run over
// two views of one base — for the DSM layout one view of each kind that
// shares it — and after every step the encoder is the oracle:
//
//   - a view that reports its directory unchanged encodes, byte for byte,
//     the blob of the generation it is attached to (so skipping the encode,
//     the log and the copy at commit loses nothing);
//   - after a commit the base's blob is what the committing view encodes,
//     whichever path the commit took;
//   - after Recycle a view encodes its own generation's blob, after Rebase
//     the landed generation's, and reads that generation's objects;
//   - two views attached to one generation stay independent: what one
//     writes to its tables never shows in the other's.
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

				// objects[g] is what generation g holds, read through the view
				// that committed it.
				objects := map[uint64][]*cobench.Station{0: scanStations(t, views[0])}
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
					if !v.m.dirChanged() && !bytes.Equal(encode(v), v.st.dir.meta) {
						t.Fatalf("step %d, %s: %s view on generation %d reports its directory unchanged, yet encodes a different blob",
							step, what, v.kind, v.Gen())
					}
				}
				// landed holds a freshly reset view to generation g entirely.
				landed := func(step int, what string, v *View) {
					t.Helper()
					if v.m.dirChanged() {
						t.Fatalf("step %d, %s: a reset %s view reports a changed directory", step, what, v.kind)
					}
					if !bytes.Equal(encode(v), v.st.dir.meta) {
						t.Fatalf("step %d, %s: %s view does not encode generation %d's blob", step, what, v.kind, v.Gen())
					}
					if !sameStations(scanStations(t, v), objects[v.Gen()]) {
						t.Fatalf("step %d, %s: %s view does not read generation %d's objects", step, what, v.kind, v.Gen())
					}
				}

				for step := 0; step < 120; step++ {
					v, other := views[step%2], views[(step+1)%2]
					if rng.Intn(3) == 0 {
						v, other = other, v
					}
					i := rng.Intn(len(stations))
					switch op := rng.Intn(10); {
					case op < 2: // query 3a's shape: fixed-width root stamps
						idxs := []int32{int32(i), int32(rng.Intn(len(stations)))}
						err = v.UpdateRoots(idxs, func(_ int32, r *cobench.RootRecord) { r.Name = fmt.Sprintf("stamp %d", step) })
						check(step, "UpdateRoots", v)
					case op < 6:
						var what string
						err = v.m.UpdateObject(i, func(s *cobench.Station) error {
							switch rng.Intn(4) {
							case 0:
								what = "growing UpdateObject"
								for n := 1 + rng.Intn(25); n > 0; n-- {
									s.Seeings = append(s.Seeings, cobench.Sightseeing{Nr: int32(500 + n), Description: "grown", Remarks: "r"})
								}
								s.Platforms = append(s.Platforms, cobench.Platform{Nr: 99, Information: "grown",
									Conns: []cobench.Connection{{LineNr: 1, OidConnection: int32(rng.Intn(len(stations)))}}})
							case 1:
								what = "shrinking UpdateObject"
								s.Seeings = s.Seeings[:len(s.Seeings)/2]
								s.Platforms = s.Platforms[:(len(s.Platforms)+1)/2]
							case 2:
								what = "key-changing UpdateObject"
								s.Key, nextKey = nextKey, nextKey+1
							default:
								what = "in-place UpdateObject"
								s.Name = fmt.Sprintf("renamed %d", step)
							}
							return nil
						})
						if err == nil {
							err = v.Flush()
						}
						check(step, what, v)
						// The sibling attached to the same tables saw none of it.
						check(step, "sibling after "+what, other)
						if !other.dirty() && !sameStations(scanStations(t, other), objects[other.Gen()]) {
							t.Fatalf("step %d: %s on one view changed what its sibling reads", step, what)
						}
					case op < 8:
						if v.Gen() != base.Gen() { // a commit is built on the current generation
							if err = v.Rebase(); err != nil {
								break
							}
						}
						var res CommitResult
						res, err = v.Commit(nil)
						if err == nil {
							if !bytes.Equal(base.Meta(), encode(v)) {
								t.Fatalf("step %d: generation %d's blob is not what the committing %s view encodes (directory changed: %v)",
									step, res.Gen, v.kind, v.m.dirChanged())
							}
							if _, seen := objects[res.Gen]; !seen {
								objects[res.Gen] = scanStations(t, v)
							}
						}
					case op < 9:
						if _, err = v.Recycle(); err == nil {
							landed(step, "Recycle", v)
						}
					default:
						if err = v.Rebase(); err == nil {
							if v.Gen() != base.Gen() {
								t.Fatalf("step %d: rebased onto generation %d, base is at %d", step, v.Gen(), base.Gen())
							}
							landed(step, "Rebase", v)
						}
					}
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			})
		}
	}
}
