//go:build race

package store

// raceEnabled: the race detector's instrumentation allocates, so tests that
// pin allocation counts skip themselves under it.
const raceEnabled = true
