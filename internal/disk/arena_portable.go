//go:build !linux

package disk

// allocArena returns a zeroed arena of exactly n bytes of capacity: the
// portable fallback of the Linux anonymous mapping, on the Go heap, with
// the same lifetime contract (the bytes count in LiveArenaBytes until
// freeArena, and no slice of the arena may be used afterwards).
func allocArena(n int) ([]byte, error) {
	if n <= 0 {
		return nil, nil
	}
	liveArena.Add(int64(n))
	return make([]byte, n), nil
}

// freeArena gives up an arena allocArena returned.
func freeArena(b []byte) error {
	liveArena.Add(-int64(cap(b)))
	return nil
}
