//go:build !poison

package store

// poison is off in ordinary builds: lent scratch is reused as it is.
const poison = false
