//go:build poison

package longobj

// poison is on under `-tags poison`: read scratch reads 0xDB before every
// read (poisonScratch).
const poison = true
