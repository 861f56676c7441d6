package complexobj

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"complexobj/cobench"
)

// codbMappings counts the mappings of .codb files under dir that
// /proc/self/maps lists.
func codbMappings(t *testing.T, dir string) int {
	t.Helper()
	f, err := os.Open("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if path := fields[len(fields)-1]; strings.HasPrefix(path, dir+"/") && strings.HasSuffix(path, ".codb") {
			n++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestCommitLogMapsEachStoredLayoutOnce pins the durable path's memory
// shape: a commit log over a seeded directory maps three .codb regions
// for five kinds — the seed is one folded container linked under five
// names — and after a checkpoint of diverged kinds, each kind's own file,
// a reopen maps five.
func TestCommitLogMapsEachStoredLayoutOnce(t *testing.T) {
	dir, err := filepath.EvalSymlinks(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	kinds := AllModels()
	dbs := make([]*DB, len(kinds))
	for i, k := range kinds {
		dbs[i] = smallDB(t, k)
		defer dbs[i].Close()
	}
	if err := SeedCommitDir(dir, dbs...); err != nil {
		t.Fatal(err)
	}
	open := func() (*CommitLog, []*Base) {
		t.Helper()
		clog, err := OpenCommitLog(dir)
		if err != nil {
			t.Fatal(err)
		}
		bases := make([]*Base, len(kinds))
		for i, k := range kinds {
			if bases[i], err = clog.OpenBase(k, ""); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := clog.Recover(); err != nil {
			t.Fatal(err)
		}
		return clog, bases
	}
	closeAll := func(clog *CommitLog, bases []*Base) {
		for _, b := range bases {
			b.Close()
		}
		clog.Close()
	}

	clog, bases := open()
	if n := codbMappings(t, dir); n != 3 {
		t.Fatalf("five kinds over a seeded directory hold %d .codb mappings, want 3", n)
	}
	for _, i := range []int{0, 2} { // DSM and NSM diverge from their partners
		v, err := bases[i].NewView(Options{BufferPages: 128})
		if err != nil {
			t.Fatal(err)
		}
		if err := v.sv.UpdateRoots([]int32{4}, func(_ int32, r *cobench.RootRecord) { r.Name = "diverged" }); err != nil {
			t.Fatal(err)
		}
		if _, err := v.Commit(clog); err != nil {
			t.Fatal(err)
		}
		v.Close()
	}
	if err := clog.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	closeAll(clog, bases)
	if n := codbMappings(t, dir); n != 0 {
		t.Fatalf("%d .codb mappings left after every base closed", n)
	}
	clog, bases = open()
	defer closeAll(clog, bases)
	if n := codbMappings(t, dir); n != 5 {
		t.Fatalf("five checkpointed kinds hold %d .codb mappings after a reopen, want 5", n)
	}
}
