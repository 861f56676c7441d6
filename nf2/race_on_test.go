//go:build race

package nf2

// raceEnabled: the race detector allocates, so tests that pin allocation
// counts skip themselves under it.
const raceEnabled = true
