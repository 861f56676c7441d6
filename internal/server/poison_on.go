//go:build poison

package server

// poison is on under `-tags poison`: a pooled response buffer is filled
// with 0xDB when it goes back to the pool, so a ResponseWriter that kept
// the bytes Write handed it reads garbage instead of a later response.
const poison = true
