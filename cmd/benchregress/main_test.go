package main

import (
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: complexobj/internal/buffer
BenchmarkFixHit-4        	24428716	        48.12 ns/op	       0 B/op	       0 allocs/op
BenchmarkFixRunMiss      	 1000000	      1173 ns/op	     272 B/op	       1 allocs/op
BenchmarkTimeOnly-8      	     100	    500000 ns/op
BenchmarkWALAppend-2     	    2000	   6687713 ns/op	   2.45 MB/s	16762960 B/op	       1 allocs/op
PASS
`
	got, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	hit, ok := got["BenchmarkFixHit"]
	if !ok {
		t.Fatal("GOMAXPROCS suffix not stripped")
	}
	if !hit.hasAllocs || hit.allocsPerOp != 0 || hit.bytesPerOp != 0 {
		t.Errorf("FixHit parsed as %+v", hit)
	}
	miss := got["BenchmarkFixRunMiss"]
	if miss.allocsPerOp != 1 || miss.bytesPerOp != 272 || miss.nsPerOp != 1173 {
		t.Errorf("FixRunMiss parsed as %+v", miss)
	}
	if wa := got["BenchmarkWALAppend"]; !wa.hasAllocs || wa.allocsPerOp != 1 || wa.bytesPerOp != 16762960 {
		t.Errorf("throughput column hid the -benchmem columns: WALAppend parsed as %+v", wa)
	}
	if to := got["BenchmarkTimeOnly"]; to.hasAllocs || to.nsPerOp != 500000 {
		t.Errorf("TimeOnly parsed as %+v", to)
	}
}
