//go:build poison

package disk

import (
	"bytes"
	"testing"
)

// Under the poison tag a page reads 0xDB from the moment it is given back
// and again when it is handed out, fresh ones and a nil pool's included:
// nothing may rely on a returned page's old bytes or on a new page's zeros.
func TestPagePoolPoisons(t *testing.T) {
	want := bytes.Repeat([]byte{0xDB}, 256)
	for _, p := range []*PagePool{nil, NewPagePool(256)} {
		b := p.Get(256)
		if !bytes.Equal(b, want) {
			t.Fatalf("a fresh page reads %x...", b[:8])
		}
		clear(b)
		p.Put([][]byte{b})
		if !bytes.Equal(b, want) {
			t.Fatalf("a returned page still reads %x...", b[:8])
		}
		clear(b)
		if b = p.Get(256); !bytes.Equal(b, want) {
			t.Fatalf("a recycled page reads %x...", b[:8])
		}
	}
}
