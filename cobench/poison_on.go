//go:build poison

package cobench

// poison is on under `-tags poison`: Extension.Release overwrites the
// strings it gives back, so a caller that kept one fails loudly.
const poison = true
