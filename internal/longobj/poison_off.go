//go:build !poison

package longobj

// poison is off in ordinary builds: read scratch is reused as it is.
const poison = false
