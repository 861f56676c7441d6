package buffer

import (
	"testing"

	"complexobj/internal/disk"
)

// benchPool builds a device with n pages behind a pool of capacity frames.
func benchPool(b *testing.B, pages, capacity int) (*disk.Disk, *Pool) {
	b.Helper()
	d := disk.New()
	if _, err := d.Allocate(pages); err != nil {
		b.Fatal(err)
	}
	return d, New(d, capacity, LRU)
}

// BenchmarkFixHit measures the steady-state cache-hit path: the page is
// resident, so a fix is pure bookkeeping. This is the hottest operation of
// the simulation (every tuple access goes through it) and the target of the
// zero-allocation requirement.
func BenchmarkFixHit(b *testing.B) {
	_, p := benchPool(b, 8, 8)
	if _, err := p.Fix(3); err != nil {
		b.Fatal(err)
	}
	if err := p.Unfix(3, false); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := p.Fix(3)
		if err != nil {
			b.Fatal(err)
		}
		_ = f
		if err := p.Unfix(3, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFixMissEvict measures the cold path: every fix misses and evicts
// a clean victim, so each iteration is one disk read plus one replacement
// decision. Buffer recycling should make this allocation-free in steady
// state as well.
func BenchmarkFixMissEvict(b *testing.B) {
	const pages = 256
	_, p := benchPool(b, pages, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := disk.PageID(i % pages)
		f, err := p.Fix(id)
		if err != nil {
			b.Fatal(err)
		}
		_ = f
		if err := p.Unfix(id, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFixRunMiss measures the multi-page object read path (DSM whole
// object transfer): an 8-page contiguous run fixed in one call, all misses.
func BenchmarkFixRunMiss(b *testing.B) {
	const pages = 512
	const run = 8
	_, p := benchPool(b, pages, 32)
	ids := make([]disk.PageID, run)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := disk.PageID((i * run) % (pages - run))
		for j := range ids {
			ids[j] = start + disk.PageID(j)
		}
		frames, err := p.FixRun(ids)
		if err != nil {
			b.Fatal(err)
		}
		_ = frames
		for _, id := range ids {
			if err := p.Unfix(id, false); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDirtyEvictChurn measures the overflow write-back path: a working
// set larger than the pool where every page is dirtied, so evictions trigger
// write bursts — the §5.4 cache-overflow regime of queries 2b/3b.
func BenchmarkDirtyEvictChurn(b *testing.B) {
	const pages = 256
	_, p := benchPool(b, pages, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := disk.PageID(i % pages)
		f, err := p.Fix(id)
		if err != nil {
			b.Fatal(err)
		}
		p.MarkDirty(f)
		if err := p.Unfix(id, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlushAll measures the disconnect flush with many dirty pages
// resident: the path that formerly scanned and re-sorted every frame.
func BenchmarkFlushAll(b *testing.B) {
	const pages = 1024
	_, p := benchPool(b, pages, pages)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for id := 0; id < pages; id += 4 {
			f, err := p.Fix(disk.PageID(id))
			if err != nil {
				b.Fatal(err)
			}
			p.MarkDirty(f)
			if err := p.Unfix(disk.PageID(id), true); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := p.FlushAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdCache measures what the runner does after every sample of
// queries 1a/1b/2a/3a and a served view on every request: a handful of
// pages fixed, one of them written, then the pool flushed and emptied. The
// frames and their buffers go round the free lists, so it allocates nothing.
func BenchmarkColdCache(b *testing.B) {
	_, p := benchPool(b, 64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for id := disk.PageID(0); id < 16; id++ {
			f, err := p.Fix(id)
			if err != nil {
				b.Fatal(err)
			}
			if id == 7 {
				p.MarkDirty(f)
			}
			if err := p.Unfix(id, id == 7); err != nil {
				b.Fatal(err)
			}
		}
		if err := p.Reset(); err != nil {
			b.Fatal(err)
		}
	}
}
