package experiments

import (
	"errors"
	"sync"
)

// cache builds one value per key and shares it between the cells that
// need it. A suite holds two: the generated extensions, keyed by
// generator configuration, and the frozen bases, keyed by (physical
// layout, generator configuration).
//
// The contract:
//   - one build per key, however many goroutines ask at once; builds of
//     different keys run concurrently;
//   - a build error is kept and returned to every later requester, not
//     retried (generation and loading are deterministic);
//   - an entry got with pin lives until close. An entry that was never
//     pinned is dropped, and forgotten, when its last user releases it; a
//     key needed again after that rebuilds;
//   - a release function is idempotent;
//   - close waits for builds in flight, drops every value and makes every
//     later get fail.
type cache[K comparable, V any] struct {
	drop func(V) error // frees a value the cache lets go of

	mu      sync.Mutex
	entries map[K]*cacheEntry[V]
	built   int
	closed  bool
}

type cacheEntry[V any] struct {
	done   chan struct{} // closed when val and err are set
	val    V
	err    error
	pinned bool
	users  int // unpinned holders that have not released yet
}

var errCacheClosed = errors.New("experiments: cache is closed")

// noRelease is the release of a pinned entry: close drops it.
var noRelease = func() error { return nil }

func newCache[K comparable, V any](drop func(V) error) *cache[K, V] {
	return &cache[K, V]{drop: drop, entries: make(map[K]*cacheEntry[V])}
}

// get returns key's value, building it with build if no live entry holds
// it, and a release function the caller calls once it no longer needs
// the value. On error there is nothing to release.
func (c *cache[K, V]) get(key K, pin bool, build func() (V, error)) (V, func() error, error) {
	var zero V
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return zero, nil, errCacheClosed
	}
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry[V]{done: make(chan struct{})}
		c.entries[key] = e
	}
	if pin {
		e.pinned = true
	} else {
		e.users++
	}
	c.mu.Unlock()

	if ok {
		<-e.done
	} else {
		e.val, e.err = build()
		if e.err == nil {
			c.mu.Lock()
			c.built++
			c.mu.Unlock()
		}
		close(e.done)
	}
	if e.err != nil {
		// A failed entry holds nothing to drop: it stays, so later
		// requesters get the same error.
		if !pin {
			c.mu.Lock()
			e.users--
			c.mu.Unlock()
		}
		return zero, nil, e.err
	}
	if pin {
		return e.val, noRelease, nil
	}
	released := false
	return e.val, func() error {
		c.mu.Lock()
		if released {
			c.mu.Unlock()
			return nil
		}
		released = true
		e.users--
		evict := e.users == 0 && !e.pinned && c.entries[key] == e
		if evict {
			delete(c.entries, key)
		}
		c.mu.Unlock()
		if evict {
			return c.drop(e.val)
		}
		return nil
	}, nil
}

// close drops every value the cache holds. Values already handed out stay
// with their holders (a base's views keep their own references), but a
// get that was waiting on a build when close ran may hand out a dropped
// value: close once no cell runs.
func (c *cache[K, V]) close() error {
	c.mu.Lock()
	entries := c.entries
	c.entries, c.closed = nil, true
	c.mu.Unlock()
	var errs []error
	for _, e := range entries {
		<-e.done
		if e.err == nil {
			errs = append(errs, c.drop(e.val))
		}
	}
	return errors.Join(errs...)
}

// Built returns how many values the cache has built, counting those since
// dropped. With Len it shows, in tests, how much a run shared.
func (c *cache[K, V]) Built() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.built
}

// Len returns the number of live entries, failed builds included.
func (c *cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
