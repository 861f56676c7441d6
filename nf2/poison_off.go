//go:build !poison

package nf2

// poison is off in ordinary builds: Strings.Reset only rewinds.
const poison = false
