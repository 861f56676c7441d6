package btree

import (
	"errors"
	"testing"

	"complexobj/internal/buffer"
	"complexobj/internal/disk"
	"complexobj/internal/xrand"
)

func newTree(t *testing.T, poolPages int) (*disk.Disk, *buffer.Pool, *Tree) {
	t.Helper()
	d := disk.New()
	p := buffer.New(d, poolPages, buffer.LRU)
	tr, err := New(d, p)
	if err != nil {
		t.Fatal(err)
	}
	return d, p, tr
}

func TestEmptyTree(t *testing.T) {
	_, _, tr := newTree(t, 16)
	if tr.Height() != 1 || tr.Pages() != 1 || tr.Len() != 0 {
		t.Errorf("empty tree: h=%d pages=%d len=%d", tr.Height(), tr.Pages(), tr.Len())
	}
	if _, err := tr.Get(42); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get on empty tree: %v", err)
	}
	count := 0
	tr.Scan(0, ^uint64(0), func(uint64, uint64) bool { count++; return true })
	if count != 0 {
		t.Errorf("scan on empty tree visited %d", count)
	}
}

func TestInsertGetSmall(t *testing.T) {
	_, _, tr := newTree(t, 16)
	for i := uint64(0); i < 50; i++ {
		if err := tr.Insert(i*7%50, i); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if tr.Len() != 50 {
		t.Errorf("Len = %d", tr.Len())
	}
	for i := uint64(0); i < 50; i++ {
		v, err := tr.Get(i * 7 % 50)
		if err != nil {
			t.Fatalf("get %d: %v", i*7%50, err)
		}
		if v != i {
			t.Fatalf("Get(%d) = %d, want %d", i*7%50, v, i)
		}
	}
}

func TestDuplicateRejected(t *testing.T) {
	_, _, tr := newTree(t, 16)
	if err := tr.Insert(5, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(5, 2); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate insert err = %v", err)
	}
	if v, _ := tr.Get(5); v != 1 {
		t.Errorf("duplicate overwrote: %d", v)
	}
}

// TestSplitsAscending inserts enough sequential keys to force leaf and
// root splits (leafCap is ~125 at 2 KiB pages).
func TestSplitsAscending(t *testing.T) {
	_, pool, tr := newTree(t, 64)
	const n = 5000
	for i := uint64(0); i < n; i++ {
		if err := tr.Insert(i, i*2); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if tr.Height() < 2 {
		t.Errorf("height = %d after %d inserts", tr.Height(), n)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		v, err := tr.Get(i)
		if err != nil || v != i*2 {
			t.Fatalf("Get(%d) = %d, %v", i, v, err)
		}
	}
}

func TestSplitsDescendingAndRandom(t *testing.T) {
	for name, gen := range map[string]func(i uint64) uint64{
		"descending": func(i uint64) uint64 { return 10000 - i },
		"random":     func(i uint64) uint64 { return (i*2654435761 + 7) % (1 << 30) },
	} {
		t.Run(name, func(t *testing.T) {
			_, _, tr := newTree(t, 64)
			const n = 4000
			seen := map[uint64]uint64{}
			for i := uint64(0); i < n; i++ {
				k := gen(i)
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = i
				if err := tr.Insert(k, i); err != nil {
					t.Fatalf("insert %d: %v", k, err)
				}
			}
			for k, v := range seen {
				got, err := tr.Get(k)
				if err != nil || got != v {
					t.Fatalf("Get(%d) = %d, %v; want %d", k, got, err, v)
				}
			}
		})
	}
}

func TestScanOrderedComplete(t *testing.T) {
	_, _, tr := newTree(t, 64)
	rng := xrand.New(5)
	keys := map[uint64]bool{}
	for len(keys) < 3000 {
		keys[uint64(rng.Intn(1<<20))] = true
	}
	for k := range keys {
		if err := tr.Insert(k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	var prev uint64
	first := true
	visited := 0
	err := tr.Scan(0, ^uint64(0), func(k, v uint64) bool {
		if !first && k <= prev {
			t.Fatalf("scan out of order: %d after %d", k, prev)
		}
		if v != k+1 {
			t.Fatalf("scan value mismatch at %d", k)
		}
		prev, first = k, false
		visited++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != len(keys) {
		t.Errorf("scan visited %d of %d (leaf chain broken?)", visited, len(keys))
	}
}

func TestScanRange(t *testing.T) {
	_, _, tr := newTree(t, 64)
	for i := uint64(0); i < 1000; i++ {
		tr.Insert(i*10, i)
	}
	var got []uint64
	tr.Scan(105, 205, func(k, v uint64) bool {
		got = append(got, k)
		return true
	})
	want := []uint64{110, 120, 130, 140, 150, 160, 170, 180, 190, 200}
	if len(got) != len(want) {
		t.Fatalf("range scan got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range scan got %v", got)
		}
	}
	// Early stop.
	count := 0
	tr.Scan(0, ^uint64(0), func(uint64, uint64) bool { count++; return count < 3 })
	if count != 3 {
		t.Errorf("early stop visited %d", count)
	}
	// Inverted range.
	count = 0
	tr.Scan(10, 5, func(uint64, uint64) bool { count++; return true })
	if count != 0 {
		t.Errorf("inverted range visited %d", count)
	}
}

func TestGetCostsHeightFixes(t *testing.T) {
	_, pool, tr := newTree(t, 256)
	for i := uint64(0); i < 20000; i++ {
		tr.Insert(i, i)
	}
	h := tr.Height()
	if h < 3 {
		t.Fatalf("tree too shallow for the test: height %d", h)
	}
	pool.ResetStats()
	if _, err := tr.Get(12345); err != nil {
		t.Fatal(err)
	}
	if fixes := pool.Fixes(); int(fixes) != h {
		t.Errorf("Get cost %d fixes, want height %d", fixes, h)
	}
}

func TestPersistenceAcrossColdCache(t *testing.T) {
	_, pool, tr := newTree(t, 32)
	for i := uint64(0); i < 2000; i++ {
		tr.Insert(i, i^0xFF)
	}
	if err := pool.Reset(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{0, 1, 999, 1500, 1999} {
		v, err := tr.Get(k)
		if err != nil || v != k^0xFF {
			t.Fatalf("after cold cache Get(%d) = %d, %v", k, v, err)
		}
	}
}

func TestRootPageStable(t *testing.T) {
	_, _, tr := newTree(t, 64)
	root := tr.Root()
	for i := uint64(0); i < 10000; i++ {
		tr.Insert(i, i)
	}
	if tr.Root() != root {
		t.Errorf("root moved from %d to %d", root, tr.Root())
	}
}

func TestPack(t *testing.T) {
	k := Pack(7, 3)
	if k != 7<<32|3 {
		t.Errorf("Pack = %x", k)
	}
	from, to := PackRange(7)
	if from != Pack(7, 0) || to != Pack(7, ^uint32(0)) {
		t.Errorf("PackRange = %x..%x", from, to)
	}
	// Group scan picks up exactly the group.
	_, _, tr := newTree(t, 32)
	for g := uint32(0); g < 20; g++ {
		for s := uint32(0); s < 5; s++ {
			tr.Insert(Pack(g, s), uint64(g*100+s))
		}
	}
	var got []uint64
	f, to2 := PackRange(7)
	tr.Scan(f, to2, func(k, v uint64) bool { got = append(got, v); return true })
	if len(got) != 5 || got[0] != 700 || got[4] != 704 {
		t.Errorf("group scan got %v", got)
	}
}

// Property test: random inserts against a shadow map under a tiny pool
// (constant eviction), then verify Get and full Scan agree with the model.
func TestRandomAgainstShadow(t *testing.T) {
	_, pool, tr := newTree(t, 8)
	rng := xrand.New(321)
	shadow := map[uint64]uint64{}
	for op := 0; op < 8000; op++ {
		k := uint64(rng.Intn(1 << 16))
		v := rng.Uint64()
		err := tr.Insert(k, v)
		if _, dup := shadow[k]; dup {
			if !errors.Is(err, ErrDuplicate) {
				t.Fatalf("op %d: duplicate %d accepted", op, k)
			}
			continue
		}
		if err != nil {
			t.Fatalf("op %d: insert(%d): %v", op, k, err)
		}
		shadow[k] = v
		if op%500 == 0 {
			if err := pool.FlushAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if tr.Len() != len(shadow) {
		t.Fatalf("Len = %d, shadow %d", tr.Len(), len(shadow))
	}
	for k, v := range shadow {
		got, err := tr.Get(k)
		if err != nil || got != v {
			t.Fatalf("Get(%d) = %d, %v; want %d", k, got, err, v)
		}
	}
	// Full scan agrees with the sorted shadow.
	visited := 0
	var prev uint64
	first := true
	tr.Scan(0, ^uint64(0), func(k, v uint64) bool {
		if !first && k <= prev {
			t.Fatalf("scan order violated at %d", k)
		}
		if shadow[k] != v {
			t.Fatalf("scan value mismatch at %d", k)
		}
		prev, first = k, false
		visited++
		return true
	})
	if visited != len(shadow) {
		t.Errorf("scan visited %d of %d", visited, len(shadow))
	}
}

func TestStatsAccounting(t *testing.T) {
	_, _, tr := newTree(t, 64)
	for i := uint64(0); i < 1000; i++ {
		tr.Insert(i, i)
	}
	if tr.Pages() < 5 {
		t.Errorf("Pages = %d after 1000 inserts", tr.Pages())
	}
	if tr.Len() != 1000 {
		t.Errorf("Len = %d", tr.Len())
	}
}
