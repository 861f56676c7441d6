package store

import (
	"fmt"
	"os"
	"testing"

	"complexobj/internal/disk"
)

// TestMain holds the package to the off-heap ledger: the loader arenas
// and page-pool chunks its tests map live outside the Go heap, so one a
// test left mapped is a leak no collection reclaims.
func TestMain(m *testing.M) {
	code := m.Run()
	if n := disk.LiveArenaBytes(); code == 0 && n != 0 {
		fmt.Fprintf(os.Stderr, "%d off-heap arena bytes live after every test\n", n)
		code = 1
	}
	os.Exit(code)
}
