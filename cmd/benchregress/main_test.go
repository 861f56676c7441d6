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

// TestVerdictGatesBytes pins the B/op gate next to the allocs/op one: an
// arena grown by doubling moves few allocations and many bytes, so bytes
// are gated with the same tolerance — but only from 1 KiB/op up, because
// smaller rows are amortized rounding. Both gates are two-sided: a column
// that falls past the tolerance asks for its row to be lowered.
func TestVerdictGatesBytes(t *testing.T) {
	mem := func(bytes, allocs float64) result {
		return result{nsPerOp: 100, bytesPerOp: bytes, allocsPerOp: allocs, hasAllocs: true}
	}
	cases := []struct {
		name      string
		base, cur result
		ok        bool
		want      string
	}{
		{"same", mem(4096, 3), mem(4096, 3), true, "ok"},
		{"bytes within tolerance", mem(10000, 3), mem(10900, 3), true, "ok"},
		{"bytes doubled, allocs flat", mem(10000, 3), mem(20000, 3), false, "B/op"},
		{"bytes just over", mem(1024, 1), mem(1127, 1), false, "B/op"},
		{"bytes fell", mem(1<<20, 9), mem(1<<10, 9), false, "lower this row"},
		{"bytes fell within tolerance", mem(10000, 3), mem(9100, 3), true, "ok"},
		{"small row falling is noise", mem(1000, 1), mem(10, 1), true, "ok"},
		{"allocs fell", mem(4096, 10), mem(4096, 8), false, "lower this row"},
		{"allocs fell within tolerance", mem(4096, 10), mem(4096, 9.5), true, "ok"},
		{"small row is noise", mem(14, 0), mem(140, 0), true, "ok"},
		{"just under a KiB is not gated", mem(1023, 1), mem(4000, 1), true, "ok"},
		{"allocs still gated", mem(4096, 10), mem(4096, 12), false, "allocs/op"},
		{"zero allocs still pinned", mem(0, 0), mem(16, 1), false, "pins 0"},
		{"time-only rows pass", result{nsPerOp: 5}, mem(1<<30, 99), true, "time-only"},
	}
	for _, c := range cases {
		line, ok := verdict("BenchmarkX", c.base, c.cur, 10)
		if ok != c.ok || !strings.Contains(line, c.want) {
			t.Errorf("%s: verdict = %q, %v; want ok=%v mentioning %q", c.name, line, ok, c.ok, c.want)
		}
	}
}
