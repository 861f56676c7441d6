//go:build poison

package longobj

// poisonScratch overwrites read scratch, to its capacity, before a read
// fills the part it selected: a decoder that reaches a component it did not
// ask for, directory bytes past the copied prefix, or the previous read's
// result sees 0xDB.
func poisonScratch(b []byte) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = 0xDB
	}
}
