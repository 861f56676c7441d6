// Resilience tests live in an external test package: they drive the
// device through the fault-injecting wrapper, and faultdisk itself
// imports disk.

package disk_test

import (
	"bytes"
	"errors"
	"testing"

	"complexobj/internal/buffer"
	"complexobj/internal/disk"
	"complexobj/internal/faultdisk"
)

const pageSize = disk.DefaultPageSize

// openBackend builds one backend of each flavor ("cow" over a nil base:
// a fully private overlay).
func openBackend(kind string) disk.Backend {
	if kind == "cow" {
		return disk.NewCOWBackend(nil)
	}
	return disk.NewMemBackend()
}

// faultedDisk is a device over a wrapped backend of the given flavor with
// the given schedule, with four pages allocated and written fault-free
// (the injector is armed only afterwards via the returned arm function —
// tests that want faults during setup wrap themselves).
func faultedDisk(t *testing.T, kind string, spec faultdisk.Spec) (*disk.Disk, *faultdisk.Injector) {
	t.Helper()
	in := faultdisk.New(spec)
	d := disk.NewWithBackend(in.Wrap(openBackend(kind)))
	t.Cleanup(func() { d.Close() })
	return d, in
}

func backendKinds() []string { return []string{"mem", "cow"} }

// TestFaultsReturnErrorsNotPanics is the propagation table: for every
// backend flavor and every failing operation class, the device (and the
// buffer pool above it) must report an error, never panic, and must not
// count the failed transfer.
func TestFaultsReturnErrorsNotPanics(t *testing.T) {
	for _, kind := range backendKinds() {
		t.Run(kind, func(t *testing.T) {
			t.Run("grow", func(t *testing.T) {
				d, in := faultedDisk(t, kind, faultdisk.Spec{Grow: 1})
				if _, err := d.Allocate(2); err == nil {
					t.Fatal("Allocate over grow=1 succeeded")
				} else if !disk.IsTransient(err) {
					t.Errorf("grow fault not transient: %v", err)
				}
				if d.NumPages() != 0 {
					t.Errorf("failed Allocate left %d pages", d.NumPages())
				}
				if c := in.Counters(); c.GrowFaults == 0 {
					t.Error("no grow fault counted")
				}
			})
			t.Run("read", func(t *testing.T) {
				// perm=1 defeats the retry, so the error must surface.
				d, _ := faultedDisk(t, kind, faultdisk.Spec{})
				if _, err := d.Allocate(2); err != nil {
					t.Fatal(err)
				}
				d2, _ := faultedDisk(t, kind, faultdisk.Spec{Perm: 1})
				if _, err := d2.Allocate(2); err != nil {
					t.Fatal(err)
				}
				if _, err := disk.ReadCopy(d2, 0, 1); err == nil {
					t.Fatal("read over perm=1 succeeded")
				}
				if s := d2.Stats(); s.PagesRead != 0 || s.ReadCalls != 0 {
					t.Errorf("failed read counted: %+v", s)
				}
			})
			t.Run("write", func(t *testing.T) {
				d, _ := faultedDisk(t, kind, faultdisk.Spec{Write: 1})
				if _, err := d.Allocate(1); err != nil {
					t.Fatal(err)
				}
				if err := d.WriteRun(0, [][]byte{make([]byte, pageSize)}); err == nil {
					t.Fatal("write over write=1 succeeded")
				} else if !disk.IsTransient(err) {
					t.Errorf("write fault not transient: %v", err)
				}
				if s := d.Stats(); s.PagesWritten != 0 || s.WriteCalls != 0 {
					t.Errorf("failed write counted: %+v", s)
				}
			})
			t.Run("pool", func(t *testing.T) {
				d, _ := faultedDisk(t, kind, faultdisk.Spec{Perm: 1})
				if _, err := d.Allocate(2); err != nil {
					t.Fatal(err)
				}
				p := buffer.New(d, 2, buffer.LRU)
				if _, err := p.Fix(0); err == nil {
					t.Fatal("Fix over a poisoned page succeeded")
				}
				if _, err := p.FixRun([]disk.PageID{0, 1}); err == nil {
					t.Fatal("FixRun over poisoned pages succeeded")
				}
			})
			t.Run("pool-writeback", func(t *testing.T) {
				d, _ := faultedDisk(t, kind, faultdisk.Spec{Write: 1})
				if _, err := d.Allocate(1); err != nil {
					t.Fatal(err)
				}
				p := buffer.New(d, 1, buffer.LRU)
				if _, err := p.Fix(0); err != nil {
					t.Fatal(err)
				}
				if err := p.Unfix(0, true); err != nil {
					t.Fatal(err)
				}
				if err := p.FlushAll(); err == nil {
					t.Fatal("FlushAll over write=1 succeeded")
				} else if !disk.IsTransient(err) {
					t.Errorf("writeback fault not transient: %v", err)
				}
			})
		})
	}
}

// TestReadRetryRidesOutTransients pins the retry loop: under a schedule
// of independent transient read faults, reads that would fail on the
// first attempt succeed after bounded retries, the retried reads return
// the right bytes, and the retries never show up in the paper counters.
func TestReadRetryRidesOutTransients(t *testing.T) {
	for _, kind := range backendKinds() {
		t.Run(kind, func(t *testing.T) {
			d, in := faultedDisk(t, kind, faultdisk.Spec{Seed: 7, Read: 0.3})
			if _, err := d.Allocate(4); err != nil {
				t.Fatal(err)
			}
			want := make([][]byte, 4)
			for i := range want {
				want[i] = bytes.Repeat([]byte{byte(i + 1)}, pageSize)
			}
			if err := d.WriteRun(0, want); err != nil {
				t.Fatal(err)
			}
			succeeded := 0
			for i := 0; i < 50; i++ {
				pages, err := disk.ReadCopy(d, disk.PageID(i%4), 1)
				if err != nil {
					// All attempts drew a fault — rare but legitimate;
					// it must still be a structured transient error.
					if !disk.IsTransient(err) {
						t.Fatalf("read %d: non-transient %v", i, err)
					}
					continue
				}
				succeeded++
				if !bytes.Equal(pages[0], want[i%4]) {
					t.Fatalf("read %d returned wrong bytes", i)
				}
			}
			if succeeded == 0 {
				t.Fatal("no read survived a 30% transient schedule")
			}
			if d.Retries() == 0 {
				t.Error("no retries recorded under read=0.3 (schedule never fired?)")
			}
			if in.Counters().ReadFaults == 0 {
				t.Error("no read faults injected")
			}
			if s := d.Stats(); s.PagesRead != int64(succeeded) || s.ReadCalls != int64(succeeded) {
				t.Errorf("stats %+v, want %d reads (retries must stay invisible)", s, succeeded)
			}
		})
	}
}

// TestPermanentFaultNotRetried: retrying a poisoned page is pointless and
// the policy must not try.
func TestPermanentFaultNotRetried(t *testing.T) {
	d, _ := faultedDisk(t, "mem", faultdisk.Spec{Perm: 1})
	if _, err := d.Allocate(1); err != nil {
		t.Fatal(err)
	}
	if _, err := disk.ReadCopy(d, 0, 1); err == nil {
		t.Fatal("poisoned read succeeded")
	}
	if n := d.Retries(); n != 0 {
		t.Errorf("%d retries on a permanent fault", n)
	}
}

// TestTornWriteLeavesBaseIntact drives a torn write through the wrapper
// into a COW backend: the materialized overlay page ends half new, half
// base, the error surfaces, and the shared base bytes stay immutable.
func TestTornWriteLeavesBaseIntact(t *testing.T) {
	baseBytes := bytes.Repeat([]byte{0xAB}, 2*pageSize)
	arena := disk.NewBaseArena(append([]byte(nil), baseBytes...))
	defer arena.Release()
	cow := disk.NewCOWBackend(arena)
	in := faultdisk.New(faultdisk.Spec{Torn: 1})
	b := in.Wrap(cow)
	defer b.Close()

	newPage := bytes.Repeat([]byte{0x11}, pageSize)
	err := b.WriteAt(newPage, 0)
	if err == nil {
		t.Fatal("torn=1 write succeeded")
	}
	var f *faultdisk.Fault
	if !errors.As(err, &f) || f.Kind != faultdisk.TornWrite {
		t.Fatalf("fault = %v", err)
	}
	// The overlay materialized a half-new page...
	got := make([]byte, pageSize)
	if err := cow.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:pageSize/2], newPage[:pageSize/2]) {
		t.Error("torn prefix not stored in the overlay")
	}
	if !bytes.Equal(got[pageSize/2:], baseBytes[pageSize/2:pageSize]) {
		t.Error("torn write clobbered the untouched half")
	}
	// ...and the shared base never moved.
	if !bytes.Equal(arena.Bytes(), baseBytes) {
		t.Error("torn write mutated the immutable base arena")
	}
}

// TestResetViewSeesThroughWrapper: COW view recycling (and COW stats)
// must find the cow backend under the fault wrapper, or pooled views
// silently stop recycling as soon as faults are armed.
func TestResetViewSeesThroughWrapper(t *testing.T) {
	arena := disk.NewBaseArena(make([]byte, 2*pageSize))
	defer arena.Release()
	in := faultdisk.New(faultdisk.Spec{Seed: 1}) // armed but inert
	d, err := disk.Open(in.Wrap(disk.NewCOWBackend(arena)))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.NumPages() != 2 {
		t.Fatalf("NumPages = %d, want 2 (adopted base)", d.NumPages())
	}
	if _, err := d.Allocate(3); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteRun(2, [][]byte{bytes.Repeat([]byte{1}, pageSize)}); err != nil {
		t.Fatal(err)
	}
	if cs, ok := disk.COWStatsOf(d.Backend()); !ok || cs.OverlayPages == 0 {
		t.Errorf("COWStatsOf through wrapper = %+v, %v", cs, ok)
	}
	if !d.ResetView() {
		t.Fatal("ResetView did not find the COW backend under the wrapper")
	}
	if d.NumPages() != 2 {
		t.Errorf("NumPages after reset = %d, want 2", d.NumPages())
	}
}
