package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"complexobj"
	"complexobj/cobench"
	"complexobj/internal/buffer"
	"complexobj/internal/disk"
	"complexobj/internal/heap"
	"complexobj/internal/longobj"
	"complexobj/internal/metrics"
	"complexobj/internal/snapshot"
	"complexobj/internal/store"
	"complexobj/internal/wal"
)

// Below workload.Runner nothing can be wrapped in a span from outside, so
// the lower layers are priced by unit probes: fixed-iteration timings of
// each layer's public calls, on the same snapshot the workloads serve.
// Every probe is repeated probeReps times and the fastest repetition is
// reported — a unit cost, not a distribution.

const probeReps = 5

// prober carries the probe results and the scale the iteration counts are
// multiplied by (1 in a real run, tiny in the unit tests).
type prober struct {
	scale  float64
	values map[string]float64
}

func (p *prober) iters(n int) int { return max(2, int(float64(n)*p.scale)) }

// fastest runs fn probeReps times; fn does some operations and returns
// the time they took and how many there were. The result is the lowest
// time per operation, in ns.
func fastest(fn func() (time.Duration, int, error)) (float64, error) {
	best := 0.0
	for r := 0; r < probeReps; r++ {
		d, n, err := fn()
		if err != nil {
			return 0, err
		}
		if per := float64(d) / float64(n); r == 0 || per < best {
			best = per
		}
	}
	return best, nil
}

// timed is fastest for the common case: fn is the whole timed region and
// performs n operations.
func timed(n int, fn func() error) (float64, error) {
	return fastest(func() (time.Duration, int, error) {
		t0 := time.Now()
		err := fn()
		return time.Since(t0), n, err
	})
}

// set stores a result given in ns under name, converted to the unit the
// name ends in.
func (p *prober) set(name string, ns float64) {
	switch {
	case strings.HasSuffix(name, "_ms"):
		ns /= 1e6
	case strings.HasSuffix(name, "_us"):
		ns /= 1e3
	}
	p.values[name] = ns
}

// probeAll runs every unit probe. snapshotPath holds all five models;
// stations is the generated extension; scratch is a private directory for
// the WAL probes.
func (p *prober) probeAll(snapshotPath string, stations []*cobench.Station, scratch string) error {
	for i, k := range store.AllKinds() {
		if err := p.probeStoreKind(snapshotPath, k, storeKinds[i]); err != nil {
			return fmt.Errorf("probe store %s: %w", k, err)
		}
	}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"device and buffer", func() error { return p.probeDeviceAndBuffer(snapshotPath) }},
		{"heap and longobj", p.probeHeapAndLongobj},
		{"nf2", func() error { return p.probeNF2(stations) }},
		{"promote", func() error { return p.probePromote(snapshotPath) }},
		{"wal", func() error { return p.probeWAL(scratch) }},
		{"histogram", p.probeHistogram},
	}
	for _, s := range steps {
		if err := s.fn(); err != nil {
			return fmt.Errorf("probe %s: %w", s.name, err)
		}
	}
	return nil
}

// probeStoreKind times the query surface of one storage model on a view
// of its base, recycling the view between calls the way the serving path
// does (so every call starts on a cold pool, like a request).
func (p *prober) probeStoreKind(snapshotPath string, k store.Kind, slug string) error {
	sb, err := snapshot.OpenBase(snapshotPath, k)
	if err != nil {
		return err
	}
	defer sb.Release()
	v, err := sb.NewView(store.Options{})
	if err != nil {
		return err
	}
	defer v.Close()
	n := v.NumObjects()
	objs := p.iters(64)
	pick := func(j int) int { return (j*n/objs + 7) % n }

	// Each object access is timed alone; the Recycle that follows is the
	// clean-view recycle of the serving path and is timed separately.
	var recycle time.Duration
	access := func(call func(i int) error) func() (time.Duration, int, error) {
		return func() (time.Duration, int, error) {
			var acc time.Duration
			recycle = 0
			for j := 0; j < objs; j++ {
				t0 := time.Now()
				err := call(pick(j))
				acc += time.Since(t0)
				if err != nil {
					return 0, 0, err
				}
				t0 = time.Now()
				_, err = v.Recycle()
				recycle += time.Since(t0)
				if err != nil {
					return 0, 0, err
				}
			}
			return acc, objs, nil
		}
	}
	if k != store.NSM {
		ns, err := fastest(access(func(i int) error { _, err := v.FetchByAddress(i); return err }))
		if err != nil {
			return err
		}
		p.set("store."+slug+".fetch_us", ns)
	}
	ns, err := fastest(access(func(i int) error { _, _, err := v.Navigate(i); return err }))
	if err != nil {
		return err
	}
	p.set("store."+slug+".navigate_us", ns)
	if k == store.DSM {
		p.set("store.view_recycle_us", float64(recycle)/float64(objs))
	}

	ns, err = fastest(func() (time.Duration, int, error) {
		t0 := time.Now()
		err := v.ScanAll(func(int, *cobench.Station) error { return nil })
		d := time.Since(t0)
		if err == nil {
			_, err = v.Recycle()
		}
		return d, 1, err
	})
	if err != nil {
		return err
	}
	p.set("store."+slug+".scan_ms", ns)

	// Query 3's write: update the root records of 16 objects and flush,
	// then recycle the now-dirty view (restoring directory metadata).
	targets := make([]int32, 16)
	for j := range targets {
		targets[j] = int32((j*n/16 + 3) % n)
	}
	var dirtyRecycle time.Duration
	updates := p.iters(16)
	ns, err = fastest(func() (time.Duration, int, error) {
		var acc time.Duration
		dirtyRecycle = 0
		for r := 0; r < updates; r++ {
			t0 := time.Now()
			err := v.UpdateRoots(targets, func(i int32, rec *cobench.RootRecord) { rec.Name = fmt.Sprintf("upd %d #%d", r, i) })
			if err == nil {
				err = v.Flush()
			}
			acc += time.Since(t0)
			if err != nil {
				return 0, 0, err
			}
			t0 = time.Now()
			_, err = v.Recycle()
			dirtyRecycle += time.Since(t0)
			if err != nil {
				return 0, 0, err
			}
		}
		return acc, updates, nil
	})
	if err != nil {
		return err
	}
	p.set("store."+slug+".update_us", ns)
	if k == store.DSM {
		p.set("store.view_recycle_dirty_us", float64(dirtyRecycle)/float64(updates))
		opens := p.iters(32)
		ns, err = fastest(func() (time.Duration, int, error) {
			var acc time.Duration
			for r := 0; r < opens; r++ {
				t0 := time.Now()
				nv, err := sb.NewView(store.Options{})
				acc += time.Since(t0)
				if err != nil {
					return 0, 0, err
				}
				nv.Close()
			}
			return acc, opens, nil
		})
		if err != nil {
			return err
		}
		p.set("store.view_open_us", ns)
	}
	return nil
}

// probeDeviceAndBuffer times the page device and the buffer pool of a
// copy-on-write view over the DSM base — the engine every served request
// runs on.
func (p *prober) probeDeviceAndBuffer(snapshotPath string) error {
	sb, err := snapshot.OpenBase(snapshotPath, store.DSM)
	if err != nil {
		return err
	}
	defer sb.Release()
	// The paper's 1200-page pool, which the 1500-object base outgrows
	// several times over (a shrunken test extension gets a pool to match).
	v, err := sb.NewView(store.Options{BufferPages: min(1200, sb.NumPages()/2)})
	if err != nil {
		return err
	}
	defer v.Close()
	dev, pool := v.Engine().Dev, v.Engine().Pool
	pages, pageSize := dev.NumPages(), dev.PageSize()

	// Device reads: runs of 8 pages across the whole base.
	const run = 8
	views, borrowed := make([][]byte, run), make([]bool, run)
	getBuf := func() []byte { return make([]byte, pageSize) }
	runs := min(p.iters(512), pages/run)
	ns, err := timed(runs*run, func() error {
		for r := 0; r < runs; r++ {
			if err := dev.ReadRunShared(disk.PageID(r*run), views, borrowed, getBuf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("disk.read_ns_per_page", ns)

	// Device writes into the overlay, then the overlay reset a recycle
	// performs (16 dirty pages, about what one query-3a request leaves).
	images := make([][]byte, run)
	for i := range images {
		images[i] = make([]byte, pageSize)
	}
	ns, err = timed(runs*run, func() error {
		for r := 0; r < runs; r++ {
			if err := dev.WriteRun(disk.PageID(r*run), images); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("disk.write_ns_per_page", ns)
	dev.ResetView()
	resets := p.iters(64)
	ns, err = fastest(func() (time.Duration, int, error) {
		var acc time.Duration
		for r := 0; r < resets; r++ {
			for w := 0; w < 2; w++ {
				if err := dev.WriteRun(disk.PageID(w*run), images); err != nil {
					return 0, 0, err
				}
			}
			t0 := time.Now()
			ok := dev.ResetView()
			acc += time.Since(t0)
			if !ok {
				return 0, 0, fmt.Errorf("ResetView refused on a copy-on-write view")
			}
		}
		return acc, resets, nil
	})
	if err != nil {
		return err
	}
	p.set("disk.reset_view_us", ns)

	// Buffer pool: hit, miss with eviction, promotion, discard.
	hits := p.iters(200000)
	if _, err := pool.Fix(0); err != nil {
		return err
	}
	pool.Unfix(0, false)
	ns, err = timed(hits, func() error {
		for r := 0; r < hits; r++ {
			if _, err := pool.Fix(0); err != nil {
				return err
			}
			pool.Unfix(0, false)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("buffer.fix_hit_ns", ns)

	// A sequential walk over more pages than the pool holds misses every
	// time under LRU once the pool is full.
	next := 0
	fixNext := func() (disk.PageID, *buffer.Frame, error) {
		id := disk.PageID(next % pages)
		next++
		f, err := pool.Fix(id)
		return id, f, err
	}
	for r := 0; r < pool.Capacity(); r++ {
		id, _, err := fixNext()
		if err != nil {
			return err
		}
		pool.Unfix(id, false)
	}
	misses := p.iters(20000)
	ns, err = timed(misses, func() error {
		for r := 0; r < misses; r++ {
			id, _, err := fixNext()
			if err != nil {
				return err
			}
			pool.Unfix(id, false)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("buffer.fix_miss_ns", ns)

	// MarkDirty on a freshly missed (borrowed) frame: the promotion to a
	// private copy that precedes every first write to a page.
	marks := min(p.iters(1000), pool.Capacity()/2)
	ns, err = fastest(func() (time.Duration, int, error) {
		var acc time.Duration
		for r := 0; r < marks; r++ {
			id, f, err := fixNext()
			if err != nil {
				return 0, 0, err
			}
			t0 := time.Now()
			pool.MarkDirty(f)
			acc += time.Since(t0)
			if err := pool.Unfix(id, true); err != nil {
				return 0, 0, err
			}
		}
		// Drop the dirty frames instead of letting evictions write them.
		if err := pool.Discard(); err != nil {
			return 0, 0, err
		}
		dev.ResetView()
		return acc, marks, nil
	})
	if err != nil {
		return err
	}
	p.set("buffer.mark_dirty_ns", ns)

	ns, err = fastest(func() (time.Duration, int, error) {
		for r := 0; r < pool.Capacity(); r++ {
			id, _, err := fixNext()
			if err != nil {
				return 0, 0, err
			}
			pool.Unfix(id, false)
		}
		t0 := time.Now()
		err := pool.Discard()
		return time.Since(t0), 1, err
	})
	if err != nil {
		return err
	}
	p.set("buffer.discard_us", ns)
	return nil
}

// probeHeapAndLongobj times a record view on a slotted page and the read
// of one multi-page object, both on a warm private engine.
func (p *prober) probeHeapAndLongobj() error {
	eng, err := store.NewEngine(store.Options{})
	if err != nil {
		return err
	}
	defer eng.Close()
	h := heap.New(eng.Dev, eng.Pool, "probe")
	rec := make([]byte, 120) // about one root record
	rids := make([]heap.RID, 64)
	for i := range rids {
		if rids[i], err = h.Insert(rec); err != nil {
			return err
		}
	}
	views := p.iters(100000)
	ns, err := timed(views, func() error {
		for r := 0; r < views; r++ {
			if err := h.View(rids[r%len(rids)], func([]byte) error { return nil }); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("heap.view_ns", ns)

	// One root component plus eight 750-byte parts: a 6 KiB object, the
	// size of an average station, spanning header and data pages.
	ls := longobj.New(eng.Dev, eng.Pool, "probe-long")
	comps := []longobj.Component{{Tag: 0, Data: make([]byte, 120)}}
	for i := 0; i < 8; i++ {
		comps = append(comps, longobj.Component{Tag: 1, Data: make([]byte, 750)})
	}
	ref, err := ls.Insert(comps)
	if err != nil {
		return err
	}
	reads := p.iters(20000)
	ns, err = timed(reads, func() error {
		for r := 0; r < reads; r++ {
			if _, err := ls.ReadAllShared(ref); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("longobj.readall_us", ns)
	return nil
}

// probeNF2 times the NF² codec on the station of median encoded size.
func (p *prober) probeNF2(stations []*cobench.Station) error {
	bySize := append([]*cobench.Station(nil), stations...)
	sort.Slice(bySize, func(i, j int) bool {
		return cobench.StationType.EncodedSize(bySize[i].Tuple()) < cobench.StationType.EncodedSize(bySize[j].Tuple())
	})
	tuple := bySize[len(bySize)/2].Tuple()
	buf, err := cobench.StationType.Encode(tuple)
	if err != nil {
		return err
	}
	n := p.iters(2000)
	ns, err := timed(n, func() error {
		for r := 0; r < n; r++ {
			if _, err := cobench.StationType.Encode(tuple); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("nf2.encode_ns", ns)
	ns, err = timed(n, func() error {
		for r := 0; r < n; r++ {
			if _, err := cobench.StationType.Decode(buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("nf2.decode_ns", ns)
	return nil
}

// probePromote times SharedBase.Promote with a 16-page patch set: the
// whole-arena copy every commit pays today.
func (p *prober) probePromote(snapshotPath string) error {
	sb, err := snapshot.OpenBase(snapshotPath, store.DSM)
	if err != nil {
		return err
	}
	defer sb.Release()
	_, numPages, meta, arena := sb.SnapshotState()
	patches := make(map[int][]byte, 16)
	for i := 0; i < 16; i++ {
		pg := i * numPages / 16
		patches[pg] = append([]byte(nil), arena.Bytes()[pg*sb.PageSize():(pg+1)*sb.PageSize()]...)
	}
	arena.Release()
	// The first promotion copies out of the snapshot mapping; the later
	// ones copy heap to heap, like every commit after a server's first.
	if _, err := sb.Promote(sb.Gen(), numPages, meta, patches); err != nil {
		return err
	}
	ns, err := timed(1, func() error {
		_, err := sb.Promote(sb.Gen(), numPages, meta, patches)
		return err
	})
	if err != nil {
		return err
	}
	p.set("store.promote_ms", ns)
	return nil
}

// probeWAL times a 16-page group commit on a real file (append + fsync)
// and the replay of the log those commits leave behind.
func (p *prober) probeWAL(scratch string) error {
	f, err := os.OpenFile(filepath.Join(scratch, "probe.wal"), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	log, err := wal.Open(f, nil)
	if err != nil {
		return err
	}
	recs := make([]wal.PageRecord, 16)
	for i := range recs {
		recs[i] = wal.PageRecord{Page: uint32(i * 7), Image: make([]byte, disk.DefaultPageSize)}
	}
	marker := wal.CommitRecord{NumPages: 4096, Meta: make([]byte, 1024)}
	commits := p.iters(40)
	ns, err := timed(commits, func() error {
		for r := 0; r < commits; r++ {
			if _, err := log.Commit(recs, marker); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("wal.commit_us", ns)
	ns, err = timed(1, func() error {
		replayed := 0
		_, err := wal.Open(f, func(wal.CommitRecord, []wal.PageRecord) error { replayed++; return nil })
		if err == nil && replayed != commits*probeReps {
			err = fmt.Errorf("replayed %d of %d commits", replayed, commits*probeReps)
		}
		return err
	})
	if err != nil {
		return err
	}
	p.set("wal.replay_ms", ns)
	return nil
}

// probeCommitLog puts 50 commits into a commit directory through the
// facade, then times crash recovery (reopen + Recover, replaying those
// 50) and a checkpoint of all five models.
func (p *prober) probeCommitLog(dir string) error {
	commits := p.iters(50)
	h, err := openCommitHarness(dir)
	if err != nil {
		return err
	}
	// Whatever the depth replay left in the log is folded away first, so
	// recovery below replays the same number of commits on every workload.
	if err := h.clog.Checkpoint(); err != nil {
		h.close()
		return err
	}
	for r := 0; r < commits; r++ {
		k := complexobj.AllModels()[r%5]
		v, err := h.pools[k].Acquire()
		if err != nil {
			h.close()
			return err
		}
		if _, err = v.Run(cobench.Q3a, cobench.Workload{Samples: 1, Seed: uint64(r)}); err == nil {
			_, err = v.Commit(h.clog)
		}
		v.Close()
		if err != nil {
			h.close()
			return err
		}
	}
	h.close()
	// Close leaves the log in place, so every reopen replays it.
	ns, err := fastest(func() (time.Duration, int, error) {
		h, err := openCommitHarness(dir)
		if err != nil {
			return 0, 0, err
		}
		h.close()
		return h.recoverDur, 1, nil
	})
	if err != nil {
		return err
	}
	p.set("commitlog.recover_ms", ns)
	h, err = openCommitHarness(dir)
	if err != nil {
		return err
	}
	defer h.close()
	ns, err = timed(1, h.clog.Checkpoint)
	if err != nil {
		return err
	}
	p.set("commitlog.checkpoint_ms", ns)
	return nil
}

// probeHistogram times the lock-free latency record every request pays
// twice.
func (p *prober) probeHistogram() error {
	h := metrics.NewHistogram()
	n := p.iters(1000000)
	ns, err := timed(n, func() error {
		for r := 0; r < n; r++ {
			h.Record(int64(r%4096) * 1000)
		}
		return nil
	})
	p.set("metrics.record_ns", ns)
	return err
}
