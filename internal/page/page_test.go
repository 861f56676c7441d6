package page

import (
	"bytes"
	"errors"
	"testing"

	"complexobj/internal/disk"
	"complexobj/internal/xrand"
)

func newPage() Page {
	p := Wrap(make([]byte, disk.DefaultPageSize))
	p.Init()
	return p
}

func rec(b byte, n int) []byte {
	r := make([]byte, n)
	for i := range r {
		r[i] = b
	}
	return r
}

func TestCapacityMatchesPaperGeometry(t *testing.T) {
	// 2048 raw - 36 system header - 6 page header - 4 slot = 2002 usable for
	// a single record; k for 170-byte tuples must be 11, matching Table 2's
	// NSM_Connection row.
	if c := Capacity; c != 2002 {
		t.Errorf("Capacity = %d, want 2002", c)
	}
	p := newPage()
	n := 0
	for {
		if _, err := p.Insert(rec(1, 170)); err != nil {
			break
		}
		n++
	}
	if n != 11 {
		t.Errorf("170-byte tuples per page = %d, want 11 (paper Table 2, k for NSM_Connection)", n)
	}
}

func TestInsertGetRoundTrip(t *testing.T) {
	p := newPage()
	a, err := p.Insert(rec(0xA, 100))
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Insert(rec(0xB, 50))
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("duplicate slot")
	}
	ga, _ := p.Get(a)
	gb, _ := p.Get(b)
	if !bytes.Equal(ga, rec(0xA, 100)) || !bytes.Equal(gb, rec(0xB, 50)) {
		t.Error("record content mismatch")
	}
	if p.Live() != 2 || p.NumSlots() != 2 {
		t.Errorf("Live=%d NumSlots=%d", p.Live(), p.NumSlots())
	}
}

func TestInsertTooLarge(t *testing.T) {
	p := newPage()
	if _, err := p.Insert(rec(1, Capacity+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized insert err = %v", err)
	}
	if _, err := p.Insert(rec(1, Capacity)); err != nil {
		t.Errorf("max-size insert failed: %v", err)
	}
}

func TestPageFull(t *testing.T) {
	p := newPage()
	for {
		if _, err := p.Insert(rec(1, 200)); err != nil {
			if !errors.Is(err, ErrPageFull) {
				t.Fatalf("want ErrPageFull, got %v", err)
			}
			break
		}
	}
}

func TestDeleteAndSlotReuse(t *testing.T) {
	p := newPage()
	a, _ := p.Insert(rec(1, 100))
	p.Insert(rec(2, 100))
	if err := p.Delete(a); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(a); !errors.Is(err, ErrBadSlot) {
		t.Errorf("Get deleted slot err = %v", err)
	}
	if err := p.Delete(a); !errors.Is(err, ErrBadSlot) {
		t.Errorf("double delete err = %v", err)
	}
	c, _ := p.Insert(rec(3, 40))
	if c != a {
		t.Errorf("deleted slot not reused: got %d want %d", c, a)
	}
	if p.Live() != 2 {
		t.Errorf("Live = %d, want 2", p.Live())
	}
}

func TestDeleteReclaimsSpaceViaCompaction(t *testing.T) {
	p := newPage()
	var slots []int
	for {
		s, err := p.Insert(rec(1, 150))
		if err != nil {
			break
		}
		slots = append(slots, s)
	}
	// Free every other record, then insert records that only fit when the
	// freed bytes are compacted together.
	freed := 0
	for i := 0; i < len(slots); i += 2 {
		p.Delete(slots[i])
		freed++
	}
	inserted := 0
	for {
		if _, err := p.Insert(rec(9, 150)); err != nil {
			break
		}
		inserted++
	}
	if inserted < freed {
		t.Errorf("reinserted %d records after freeing %d", inserted, freed)
	}
}

func TestUpdateSameSizeInPlace(t *testing.T) {
	p := newPage()
	s, _ := p.Insert(rec(1, 80))
	if err := p.Update(s, rec(7, 80)); err != nil {
		t.Fatal(err)
	}
	g, _ := p.Get(s)
	if !bytes.Equal(g, rec(7, 80)) {
		t.Error("in-place update lost data")
	}
}

func TestUpdateShrink(t *testing.T) {
	p := newPage()
	s, _ := p.Insert(rec(1, 80))
	p.Insert(rec(2, 80))
	if err := p.Update(s, rec(5, 30)); err != nil {
		t.Fatal(err)
	}
	g, _ := p.Get(s)
	if !bytes.Equal(g, rec(5, 30)) {
		t.Error("shrink update lost data")
	}
}

func TestUpdateGrow(t *testing.T) {
	p := newPage()
	s, _ := p.Insert(rec(1, 30))
	other, _ := p.Insert(rec(2, 80))
	if err := p.Update(s, rec(5, 200)); err != nil {
		t.Fatal(err)
	}
	g, _ := p.Get(s)
	if !bytes.Equal(g, rec(5, 200)) {
		t.Error("grow update lost data")
	}
	go2, _ := p.Get(other)
	if !bytes.Equal(go2, rec(2, 80)) {
		t.Error("grow update corrupted sibling record")
	}
}

func TestUpdateGrowBeyondCapacityFailsCleanly(t *testing.T) {
	p := newPage()
	s, _ := p.Insert(rec(1, 100))
	for {
		if _, err := p.Insert(rec(2, 150)); err != nil {
			break
		}
	}
	err := p.Update(s, rec(3, 1900))
	if !errors.Is(err, ErrPageFull) {
		t.Fatalf("grow on full page err = %v", err)
	}
	// Original record must be intact after the failed update.
	g, gerr := p.Get(s)
	if gerr != nil || !bytes.Equal(g, rec(1, 100)) {
		t.Error("failed grow corrupted original record")
	}
}

func TestUpdateGrowUsesGarbage(t *testing.T) {
	p := newPage()
	var slots []int
	for {
		s, err := p.Insert(rec(1, 400))
		if err != nil {
			break
		}
		slots = append(slots, s)
	}
	p.Delete(slots[0])
	p.Delete(slots[1])
	// Contiguous free space is small, but garbage allows the grow.
	target := slots[2]
	if err := p.Update(target, rec(8, 700)); err != nil {
		t.Fatalf("grow into garbage failed: %v", err)
	}
	g, _ := p.Get(target)
	if !bytes.Equal(g, rec(8, 700)) {
		t.Error("grown record corrupted")
	}
}

func TestBadSlotErrors(t *testing.T) {
	p := newPage()
	if _, err := p.Get(0); !errors.Is(err, ErrBadSlot) {
		t.Errorf("Get(0) on empty page: %v", err)
	}
	if err := p.Update(3, rec(1, 5)); !errors.Is(err, ErrBadSlot) {
		t.Errorf("Update bad slot: %v", err)
	}
	if err := p.Delete(-1); !errors.Is(err, ErrBadSlot) {
		t.Errorf("Delete(-1): %v", err)
	}
}

func TestRangeVisitsLiveRecordsInSlotOrder(t *testing.T) {
	p := newPage()
	a, _ := p.Insert(rec(0xA, 10))
	b, _ := p.Insert(rec(0xB, 10))
	c, _ := p.Insert(rec(0xC, 10))
	p.Delete(b)
	var got []int
	p.Range(func(slot int, r []byte) bool {
		got = append(got, slot)
		return true
	})
	if len(got) != 2 || got[0] != a || got[1] != c {
		t.Errorf("Range visited %v, want [%d %d]", got, a, c)
	}
	// Early stop.
	count := 0
	p.Range(func(int, []byte) bool { count++; return false })
	if count != 1 {
		t.Errorf("Range with early stop visited %d", count)
	}
}

// Property test: random insert/update/delete traffic against a map-based
// shadow model; contents must always agree and the page must never report
// impossible free space.
func TestRandomOpsAgainstShadow(t *testing.T) {
	p := newPage()
	rng := xrand.New(2024)
	shadow := map[int][]byte{}
	nextVal := byte(0)
	for op := 0; op < 20000; op++ {
		switch rng.Intn(3) {
		case 0: // insert
			n := 1 + rng.Intn(300)
			nextVal++
			r := rec(nextVal, n)
			slot, err := p.Insert(r)
			if err != nil {
				if !errors.Is(err, ErrPageFull) && !errors.Is(err, ErrTooLarge) {
					t.Fatalf("op %d insert: %v", op, err)
				}
				continue
			}
			if _, exists := shadow[slot]; exists {
				t.Fatalf("op %d: slot %d reused while live", op, slot)
			}
			shadow[slot] = r
		case 1: // update random live slot
			slot, ok := anyKey(shadow, rng)
			if !ok {
				continue
			}
			n := 1 + rng.Intn(300)
			nextVal++
			r := rec(nextVal, n)
			if err := p.Update(slot, r); err != nil {
				if !errors.Is(err, ErrPageFull) {
					t.Fatalf("op %d update: %v", op, err)
				}
				continue
			}
			shadow[slot] = r
		case 2: // delete random live slot
			slot, ok := anyKey(shadow, rng)
			if !ok {
				continue
			}
			if err := p.Delete(slot); err != nil {
				t.Fatalf("op %d delete: %v", op, err)
			}
			delete(shadow, slot)
		}
		if p.Live() != len(shadow) {
			t.Fatalf("op %d: Live=%d shadow=%d", op, p.Live(), len(shadow))
		}
	}
	for slot, want := range shadow {
		got, err := p.Get(slot)
		if err != nil {
			t.Fatalf("final Get(%d): %v", slot, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("final slot %d content mismatch", slot)
		}
	}
}

func anyKey(m map[int][]byte, rng *xrand.Source) (int, bool) {
	if len(m) == 0 {
		return 0, false
	}
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// Deterministic order before random pick.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys[rng.Intn(len(keys))], true
}

// TestPackingMatchesInsert pins the sizing arithmetic to the page: on a
// page that only ever sees Inserts, Packing.Add answers exactly what
// CanFit answers, record after record, until the page is full.
func TestPackingMatchesInsert(t *testing.T) {
	rng := xrand.New(11)
	for round := 0; round < 200; round++ {
		p, pk := newPage(), NewPacking()
		for {
			n := rng.Intn(Capacity/(1+rng.Intn(40)) + 1)
			fits := p.CanFit(n)
			if got := pk.Add(n); got != fits {
				t.Fatalf("round %d: Packing says %v for %d bytes, the page says %v (%d free)", round, got, n, fits, p.FreeFor())
			}
			if !fits {
				break
			}
			if _, err := p.Insert(rec(1, n)); err != nil {
				t.Fatal(err)
			}
		}
	}
}
