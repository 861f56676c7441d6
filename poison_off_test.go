//go:build !poison

package complexobj

// poisoned is off in ordinary builds: lent scratch is reused as it is.
const poisoned = false
