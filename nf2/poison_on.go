//go:build poison

package nf2

// poison is on under `-tags poison`: Strings.Reset overwrites the values it
// invalidates, so a caller that kept one fails loudly.
const poison = true
