package faultdisk

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"complexobj/internal/disk"
)

func TestParseSpecRoundTrip(t *testing.T) {
	specs := []string{
		"seed=7,read=0.02",
		"read=0.1,write=0.05,grow=0.01,perm=0.001,short=0.02,torn=0.03,panic=0.004",
		"seed=42,latency=0.05:2ms",
		"seed=1,read=0.5,pages=3-9",
		"read=0.25,pages=4-",
	}
	for _, s := range specs {
		spec, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		if !spec.Enabled() {
			t.Errorf("ParseSpec(%q).Enabled() = false", s)
		}
		again, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q.String() = %q): %v", s, spec.String(), err)
		}
		if again != spec {
			t.Errorf("round trip of %q: got %+v, want %+v", s, again, spec)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, s := range []string{
		"",
		"   ",
		"read",           // not key=value
		"read=2",         // probability out of range
		"read=-0.1",      // negative probability
		"read=NaN",       // not a probability
		"bogus=0.1",      // unknown clause
		"seed=-1",        // negative seed
		"latency=2ms:x",  // duration first means the prob side fails
		"latency=0.5:-x", // bad duration
		"pages=5-3",      // inverted range
		"pages=-2",       // negative page
	} {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted", s)
		}
	}
}

func TestParseSpecSinglePage(t *testing.T) {
	spec, err := ParseSpec("read=1,pages=5")
	if err != nil {
		t.Fatal(err)
	}
	if spec.PageLo != 5 || spec.PageHi != 5 {
		t.Fatalf("pages=5 parsed to [%d,%d], want [5,5]", spec.PageLo, spec.PageHi)
	}
	if spec.inRange(4) || !spec.inRange(5) || spec.inRange(6) {
		t.Error("pages=5 range does not isolate page 5")
	}
}

// memBackend is a minimal in-memory substrate for wrapper tests.
type memBackend struct {
	data []byte
}

func (m *memBackend) Len() int     { return len(m.data) }
func (m *memBackend) Flush() error { return nil }
func (m *memBackend) Close() error { return nil }
func (m *memBackend) Grow(n int) error {
	m.data = append(m.data, make([]byte, n-len(m.data))...)
	return nil
}
func (m *memBackend) ReadAt(p []byte, off int) error {
	copy(p, m.data[off:])
	return nil
}
func (m *memBackend) WriteAt(p []byte, off int) error {
	copy(m.data[off:], p)
	return nil
}

const testPage = disk.DefaultPageSize

// drive runs a fixed deterministic op sequence against a wrapped backend
// and returns how many calls failed.
func drive(t *testing.T, b disk.Backend) int {
	t.Helper()
	failed := 0
	buf := make([]byte, testPage)
	for i := 0; i < 400; i++ {
		pg := i % 8
		var err error
		if i%3 == 0 {
			err = b.WriteAt(buf, pg*testPage)
		} else {
			err = b.ReadAt(buf, pg*testPage)
		}
		if err != nil {
			failed++
		}
	}
	return failed
}

func TestDeterministicSchedule(t *testing.T) {
	spec, err := ParseSpec("seed=99,read=0.1,write=0.1,perm=0.01,short=0.05,torn=0.05")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (Counters, int) {
		in := New(spec)
		b := in.Wrap(&memBackend{data: make([]byte, 8*testPage)})
		failed := drive(t, b)
		// A second wrapped backend draws from its own stream: same spec,
		// same wrap order, same schedule.
		b2 := in.Wrap(&memBackend{data: make([]byte, 8*testPage)})
		failed += drive(t, b2)
		return in.Counters(), failed
	}
	c1, f1 := run()
	c2, f2 := run()
	if c1 != c2 || f1 != f2 {
		t.Errorf("same spec+seed diverged:\n%+v (%d failures)\n%+v (%d failures)", c1, f1, c2, f2)
	}
	if c1.Injected() == 0 {
		t.Error("schedule injected nothing; the determinism pin is vacuous")
	}
	if c1.Ops != 800 {
		t.Errorf("Ops = %d, want 800 (400 per wrapped backend)", c1.Ops)
	}

	other := spec
	other.Seed = 100
	in := New(other)
	b := in.Wrap(&memBackend{data: make([]byte, 8*testPage)})
	drive(t, b)
	b2 := in.Wrap(&memBackend{data: make([]byte, 8*testPage)})
	drive(t, b2)
	if in.Counters() == c1 {
		t.Error("different seeds produced identical counters (suspicious)")
	}
}

func TestTransientFaultIsTransient(t *testing.T) {
	in := New(Spec{Read: 1})
	b := in.Wrap(&memBackend{data: make([]byte, testPage)})
	err := b.ReadAt(make([]byte, testPage), 0)
	if err == nil {
		t.Fatal("read=1 did not fail")
	}
	if !disk.IsTransient(err) {
		t.Errorf("transient read fault not transient: %v", err)
	}
	var f *Fault
	if !errors.As(err, &f) || f.Kind != Transient || f.Op != "read" || f.Page != 0 {
		t.Errorf("fault = %+v", f)
	}
}

func TestPermanentPoisoning(t *testing.T) {
	in := New(Spec{Perm: 1})
	b := in.Wrap(&memBackend{data: make([]byte, 2*testPage)})
	err := b.ReadAt(make([]byte, testPage), 0)
	if err == nil {
		t.Fatal("perm=1 did not fail")
	}
	if disk.IsTransient(err) {
		t.Errorf("permanent fault reported transient: %v", err)
	}
	// The poisoned page keeps failing, and on the same page no new
	// poisoning is counted.
	if err := b.ReadAt(make([]byte, testPage), 0); err == nil {
		t.Fatal("poisoned page read succeeded")
	}
	if err := b.WriteAt(make([]byte, testPage), 0); err == nil {
		t.Fatal("poisoned page write succeeded")
	}
	c := in.Counters()
	if c.PoisonedPages != 1 {
		t.Errorf("PoisonedPages = %d, want 1", c.PoisonedPages)
	}
	if c.PermFaults != 3 {
		t.Errorf("PermFaults = %d, want 3", c.PermFaults)
	}
}

func TestShortReadFillsPrefixOnly(t *testing.T) {
	inner := &memBackend{data: bytes.Repeat([]byte{0xAB}, testPage)}
	in := New(Spec{Short: 1})
	b := in.Wrap(inner)
	p := bytes.Repeat([]byte{0xFF}, testPage)
	err := b.ReadAt(p, 0)
	if err == nil {
		t.Fatal("short=1 read succeeded")
	}
	var f *Fault
	if !errors.As(err, &f) || f.Kind != ShortRead {
		t.Fatalf("fault = %v", err)
	}
	if !bytes.Equal(p[:testPage/2], inner.data[:testPage/2]) {
		t.Error("short read did not fill the prefix")
	}
	if !bytes.Equal(p[testPage/2:], bytes.Repeat([]byte{0xFF}, testPage/2)) {
		t.Error("short read touched bytes beyond the prefix")
	}
}

func TestTornWriteStoresPrefixOnly(t *testing.T) {
	inner := &memBackend{data: bytes.Repeat([]byte{0xAB}, testPage)}
	in := New(Spec{Torn: 1})
	b := in.Wrap(inner)
	p := bytes.Repeat([]byte{0x11}, testPage)
	err := b.WriteAt(p, 0)
	if err == nil {
		t.Fatal("torn=1 write succeeded")
	}
	var f *Fault
	if !errors.As(err, &f) || f.Kind != TornWrite {
		t.Fatalf("fault = %v", err)
	}
	if !bytes.Equal(inner.data[:testPage/2], p[:testPage/2]) {
		t.Error("torn write did not store the prefix")
	}
	if !bytes.Equal(inner.data[testPage/2:], bytes.Repeat([]byte{0xAB}, testPage/2)) {
		t.Error("torn write stored bytes beyond the prefix")
	}
}

func TestGrowFault(t *testing.T) {
	in := New(Spec{Grow: 1})
	b := in.Wrap(&memBackend{})
	if err := b.Grow(testPage); err == nil {
		t.Fatal("grow=1 succeeded")
	} else if !disk.IsTransient(err) {
		t.Errorf("grow fault not transient: %v", err)
	}
	if c := in.Counters(); c.GrowFaults != 1 {
		t.Errorf("GrowFaults = %d, want 1", c.GrowFaults)
	}
}

func TestPanicFault(t *testing.T) {
	in := New(Spec{Panic: 1})
	b := in.Wrap(&memBackend{data: make([]byte, testPage)})
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("panic=1 did not panic")
		}
		f, ok := p.(*Fault)
		if !ok || f.Kind != PanicFault {
			t.Errorf("panicked with %v", p)
		}
		if c := in.Counters(); c.Panics != 1 {
			t.Errorf("Panics = %d, want 1", c.Panics)
		}
	}()
	b.ReadAt(make([]byte, testPage), 0)
}

func TestPageRangeConfinesInjection(t *testing.T) {
	in := New(Spec{Read: 1, PageLo: 3, PageHi: 3})
	b := in.Wrap(&memBackend{data: make([]byte, 8*testPage)})
	p := make([]byte, testPage)
	for pg := 0; pg < 8; pg++ {
		err := b.ReadAt(p, pg*testPage)
		if pg == 3 && err == nil {
			t.Error("in-range page did not fault")
		}
		if pg != 3 && err != nil {
			t.Errorf("out-of-range page %d faulted: %v", pg, err)
		}
	}
	// Out-of-range ops never consult the schedule.
	if c := in.Counters(); c.Ops != 1 {
		t.Errorf("Ops = %d, want 1 (only the in-range access)", c.Ops)
	}
}

func TestLatencyInjection(t *testing.T) {
	in := New(Spec{LatencyProb: 1, Latency: time.Millisecond})
	var slept time.Duration
	in.sleep = func(d time.Duration) { slept += d }
	b := in.Wrap(&memBackend{data: make([]byte, testPage)})
	for i := 0; i < 3; i++ {
		if err := b.ReadAt(make([]byte, testPage), 0); err != nil {
			t.Fatal(err)
		}
	}
	if slept != 3*time.Millisecond {
		t.Errorf("slept %v, want 3ms", slept)
	}
	if c := in.Counters(); c.Delays != 3 || c.Injected() != 0 {
		t.Errorf("counters = %+v: want 3 delays, 0 injected faults", c)
	}
}

func TestUnwrapExposesSubstrate(t *testing.T) {
	inner := &memBackend{data: make([]byte, testPage)}
	b := New(Spec{Read: 1}).Wrap(inner)
	u, ok := b.(interface{ Unwrap() disk.Backend })
	if !ok {
		t.Fatal("wrapped backend has no Unwrap")
	}
	if u.Unwrap() != disk.Backend(inner) {
		t.Error("Unwrap did not return the substrate")
	}
	if _, ok := b.(interface{ Bytes() []byte }); ok {
		t.Error("fault wrapper exposes a flat arena; faults would be bypassed")
	}
}

func TestFaultErrorText(t *testing.T) {
	e := (&Fault{Op: "read", Page: 7, Kind: ShortRead}).Error()
	for _, want := range []string{"injected", "short read", "read", "page 7"} {
		if !strings.Contains(e, want) {
			t.Errorf("fault error %q misses %q", e, want)
		}
	}
}

// TestStablePageSkipsFaultedRange pins the zero-copy/fault-injection
// contract: pages the schedule applies to are never handed out as stable
// slices (borrows would bypass ReadAt, where faults fire), pages outside
// the range delegate to the inner backend without consulting the
// schedule, and a wrapped backend without the capability shares nothing.
func TestStablePageSkipsFaultedRange(t *testing.T) {
	in := New(Spec{Read: 1, PageLo: 3, PageHi: 3})
	inner := disk.NewMemBackend()
	if err := inner.Grow(8 * testPage); err != nil {
		t.Fatal(err)
	}
	b := in.Wrap(inner).(disk.StablePager)

	if _, ok := b.StablePage(3*testPage, testPage); ok {
		t.Error("faulted page handed out as a stable slice")
	}
	s, ok := b.StablePage(2*testPage, testPage)
	if !ok {
		t.Fatal("out-of-range page not delegated to the stable inner backend")
	}
	ws, _ := inner.(disk.StablePager).StablePage(2*testPage, testPage)
	if &s[0] != &ws[0] {
		t.Error("delegated stable slice does not alias the inner arena")
	}
	// Neither call consulted the schedule: no ops, no draws — the fault
	// stream for later ReadAt calls is byte-for-byte what it would have
	// been without the stable probes.
	if c := in.Counters(); c.Ops != 0 {
		t.Errorf("StablePage moved the op counter: %+v", c)
	}
	// The faulted page still injects through the copying path.
	if err := b.(disk.Backend).ReadAt(make([]byte, testPage), 3*testPage); err == nil {
		t.Error("faulted page did not inject after stable probes")
	}

	// A non-stable inner backend shares nothing, faulted or not.
	plain := in.Wrap(&memBackend{data: make([]byte, 8*testPage)}).(disk.StablePager)
	if _, ok := plain.StablePage(0, testPage); ok {
		t.Error("wrapper invented a stable page over a non-stable inner backend")
	}
}
