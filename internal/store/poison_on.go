//go:build poison

package store

// poison is on under `-tags poison`: before the view's scratch is reused, a
// lent object's slices are zeroed, a lent child list is filled with -1
// (nf2.Strings.Reset overwrites the strings with 0xDB) and the arrays are
// left behind, so a caller that kept one reads garbage from then on —
// loudly — instead of the next read's plausible data.
const poison = true
