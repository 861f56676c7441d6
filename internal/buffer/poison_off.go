//go:build !poison

package buffer

// poison is off in ordinary builds: FixRun's result scratch is reused as
// it is.
const poison = false
