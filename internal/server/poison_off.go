//go:build !poison

package server

// poison is off in ordinary builds: a pooled response buffer is reused as
// it is.
const poison = false
