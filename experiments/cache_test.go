package experiments

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeValue stands in for a base or an extension: it counts its drops.
type fakeValue struct {
	key   string
	drops atomic.Int32
}

func newFakeCache() *cache[string, *fakeValue] {
	return newCache[string](func(v *fakeValue) error {
		v.drops.Add(1)
		return nil
	})
}

// builder returns a build function for key that counts its calls.
func builder(key string, calls *atomic.Int32) func() (*fakeValue, error) {
	return func() (*fakeValue, error) {
		calls.Add(1)
		return &fakeValue{key: key}, nil
	}
}

// TestCacheBuildsOnce: concurrent gets of one key run one build and get
// one value, distinct keys get distinct values, and a build error is kept
// and returned to every later requester without a second build.
func TestCacheBuildsOnce(t *testing.T) {
	for _, pin := range []bool{true, false} {
		c := newFakeCache()
		var calls atomic.Int32
		var wg sync.WaitGroup
		vals := make([]*fakeValue, 8)
		releases := make([]func() error, 8)
		for i := range vals {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				v, release, err := c.get("a", pin, builder("a", &calls))
				if err != nil {
					t.Error(err)
					return
				}
				vals[i], releases[i] = v, release
			}(i)
		}
		wg.Wait()
		if calls.Load() != 1 || c.Built() != 1 {
			t.Fatalf("pin=%t: 8 concurrent gets ran %d builds (Built %d), want 1", pin, calls.Load(), c.Built())
		}
		for _, v := range vals[1:] {
			if v != vals[0] {
				t.Fatalf("pin=%t: concurrent gets returned distinct values", pin)
			}
		}
		b, releaseB, err := c.get("b", pin, builder("b", &calls))
		if err != nil {
			t.Fatal(err)
		}
		if b == vals[0] || b.key != "b" || c.Len() != 2 {
			t.Fatalf("pin=%t: distinct key shared a value (Len %d)", pin, c.Len())
		}
		for _, release := range append(releases, releaseB) {
			if err := release(); err != nil {
				t.Fatal(err)
			}
		}

		var failed atomic.Int32
		boom := errors.New("boom")
		fail := func() (*fakeValue, error) { failed.Add(1); return nil, boom }
		for range 3 {
			if _, _, err := c.get("bad", pin, fail); !errors.Is(err, boom) {
				t.Fatalf("pin=%t: failed build returned %v, want %v", pin, err, boom)
			}
		}
		if failed.Load() != 1 {
			t.Errorf("pin=%t: a failed build was retried: %d builds", pin, failed.Load())
		}
		if err := c.close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCacheUnpinnedLifetime: an unpinned entry lives while any user holds
// it and is dropped exactly once after the last release; a release is
// idempotent, a key got again after its drop rebuilds, and a pin on a live
// entry keeps it past its last release.
func TestCacheUnpinnedLifetime(t *testing.T) {
	c := newFakeCache()
	var calls atomic.Int32
	v, release1, err := c.get("a", false, builder("a", &calls))
	if err != nil {
		t.Fatal(err)
	}
	_, release2, err := c.get("a", false, builder("a", &calls))
	if err != nil {
		t.Fatal(err)
	}
	release1()
	release1() // idempotent: must not count as the second user's release
	if v.drops.Load() != 0 || c.Len() != 1 {
		t.Fatalf("entry dropped while a user holds it (drops %d, Len %d)", v.drops.Load(), c.Len())
	}
	release2()
	release2()
	if v.drops.Load() != 1 || c.Len() != 0 {
		t.Fatalf("after the last release: drops %d, Len %d, want 1 and 0", v.drops.Load(), c.Len())
	}

	again, releaseAgain, err := c.get("a", false, builder("a", &calls))
	if err != nil {
		t.Fatal(err)
	}
	if again == v || calls.Load() != 2 || c.Built() != 2 {
		t.Fatalf("a dropped key did not rebuild (builds %d, Built %d)", calls.Load(), c.Built())
	}
	// A pin on the live entry keeps it past its last user.
	if _, _, err := c.get("a", true, builder("a", &calls)); err != nil {
		t.Fatal(err)
	}
	releaseAgain()
	if again.drops.Load() != 0 || c.Len() != 1 {
		t.Fatalf("pinned entry dropped at its last release (drops %d, Len %d)", again.drops.Load(), c.Len())
	}
	if err := c.close(); err != nil {
		t.Fatal(err)
	}
	if again.drops.Load() != 1 || v.drops.Load() != 1 {
		t.Fatalf("close dropped %d and %d times, want each value once", again.drops.Load(), v.drops.Load())
	}
}

// TestCacheClose: close waits for a build in flight, drops each value
// exactly once — pinned, held and in flight alike, with a release after
// close dropping nothing more — and fails every later get.
func TestCacheClose(t *testing.T) {
	c := newFakeCache()
	var calls atomic.Int32
	pinned, _, err := c.get("pinned", true, builder("pinned", &calls))
	if err != nil {
		t.Fatal(err)
	}
	held, releaseHeld, err := c.get("held", false, builder("held", &calls))
	if err != nil {
		t.Fatal(err)
	}

	started, finish := make(chan struct{}), make(chan struct{})
	slow := &fakeValue{key: "slow"}
	go c.get("slow", true, func() (*fakeValue, error) {
		close(started)
		<-finish
		return slow, nil
	})
	<-started
	closed := make(chan error)
	go func() { closed <- c.close() }()
	select {
	case <-closed:
		t.Fatal("close returned while a build was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(finish)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	releaseHeld()
	for _, v := range []*fakeValue{pinned, held, slow} {
		if n := v.drops.Load(); n != 1 {
			t.Errorf("%s dropped %d times, want 1", v.key, n)
		}
	}
	if _, _, err := c.get("pinned", true, builder("pinned", &calls)); err == nil {
		t.Error("get after close succeeded")
	}
}
