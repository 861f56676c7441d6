//go:build poison

package complexobj

// poisoned: under the poison tag lent scratch is abandoned at every reuse,
// so tests that pin allocation skip themselves.
const poisoned = true
