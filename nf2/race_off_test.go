//go:build !race

package nf2

const raceEnabled = false
