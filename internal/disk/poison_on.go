//go:build poison

package disk

// poison is the build tag: off-heap memory is quarantined, not unmapped
// (unmapRange).
const poison = true

// poisonPage overwrites a page on its way into and out of a PagePool: who
// still reads a page given back, or takes a new one for zeroed, sees 0xDB.
func poisonPage(b []byte) {
	for i := range b {
		b[i] = 0xDB
	}
}
