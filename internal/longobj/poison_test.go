//go:build poison

package longobj

import (
	"bytes"
	"testing"
)

// Under the poison tag a read starts from scratch full of 0xDB: what the
// read before it returned — here all of a three-page object — reads garbage
// once the next read has selected less, never the old object's bytes, and so
// does the directory past the prefix the next read copies.
func TestReadScratchIsPoisonedBeforeEachRead(t *testing.T) {
	_, _, s := newStore(t, 16)
	big, _ := s.Insert([]Component{comp(0, 1, 1500), comp(1, 2, 2500), comp(2, 3, 1200)})
	one, _ := s.Insert([]Component{comp(0, 4, 100), comp(1, 5, 3000)})
	kept, _, err := s.Read(big, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	last, dir := kept[2].Data, s.hdrScratch[:dirPrologue+3*dirEntry]
	root, _, err := s.Read(one, true, func(tag uint8, _ int) bool { return tag == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if len(root) != 1 || !bytes.Equal(root[0].Data, comp(0, 4, 100).Data) {
		t.Fatalf("the selected component reads %x...", root[0].Data[:4])
	}
	if want := bytes.Repeat([]byte{0xDB}, len(last)); !bytes.Equal(last, want) {
		t.Errorf("a component kept across the next read still reads %x...", last[:4])
	}
	if tail := dir[dirPrologue+2*dirEntry:]; !bytes.Equal(tail, bytes.Repeat([]byte{0xDB}, len(tail))) {
		t.Errorf("directory bytes past the copied prefix read %x", tail)
	}
}
