//go:build !poison

package cobench

// poison is off in ordinary builds: Extension.Release only gives back.
const poison = false
