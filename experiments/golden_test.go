package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestAllGolden pins the whole published output, not a sample of it:
// every section of Suite.All rendered as cotables prints it must equal,
// byte for byte, the committed text at any fan-out width. The golden is
// the stdout of
//
//	go run ./cmd/cotables -n 300 -loops 60
//
// taken at the commit before the experiment paths were collapsed into
// one; regenerate it with that command only for a change that is meant
// to alter a published number.
func TestAllGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/cotables_n300_loops60.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		cfg := DefaultConfig()
		cfg.Gen.N = 300
		cfg.Workload.Loops = 60
		cfg.Workers = workers
		s := New(cfg)
		tables, err := s.All()
		if err != nil {
			s.Close()
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var b strings.Builder
		for _, tbl := range tables {
			fmt.Fprintln(&b, tbl.Text())
		}
		if got := b.String(); got != string(want) {
			t.Errorf("workers=%d: rendered output differs from the golden (%d vs %d bytes); first difference at byte %d",
				workers, len(got), len(want), firstDiff(got, string(want)))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func firstDiff(a, b string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
