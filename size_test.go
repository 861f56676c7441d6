package complexobj_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// sizeLedger is the committed size budget: one row per package directory
// with its non-test Go lines, plus README.md's line count.
const sizeLedger = "ci/size.txt"

// measureSizes counts what the ledger budgets in the working tree: the
// lines of every non-test .go file, by directory (testdata and hidden
// directories skipped), and README.md's lines.
func measureSizes(t *testing.T) map[string]int {
	t.Helper()
	lines := func(path string) int {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Count(raw, []byte("\n"))
	}
	got := map[string]int{"README.md": lines("README.md")}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			got[filepath.ToSlash(filepath.Dir(path))] += lines(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestSizeLedger keeps growth visible: no package may exceed its row of
// ci/size.txt, every package needs a row and every row a package. A
// change that grows a package raises its row in the same diff, in plain
// sight; one that shrinks it lowers the row. On failure the test prints
// the measured ledger to paste over the file.
func TestSizeLedger(t *testing.T) {
	f, err := os.Open(sizeLedger)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	budget := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		n, err := strconv.Atoi(fields[len(fields)-1])
		if len(fields) != 2 || err != nil {
			t.Fatalf("%s: malformed row %q (want \"<dir> <lines>\")", sizeLedger, line)
		}
		budget[fields[0]] = n
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := measureSizes(t)
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	slices.Sort(names)
	failed := false
	for _, name := range names {
		switch want, ok := budget[name]; {
		case !ok:
			t.Errorf("%s has %d lines and no row in %s", name, got[name], sizeLedger)
			failed = true
		case got[name] > want:
			t.Errorf("%s has %d lines, its row allows %d", name, got[name], want)
			failed = true
		}
	}
	for name := range budget {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: row %q names no package", sizeLedger, name)
			failed = true
		}
	}
	if failed {
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%-22s %d\n", name, got[name])
		}
		t.Logf("measured ledger:\n%s", b.String())
	}
}
