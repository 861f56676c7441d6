package complexobj_test

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
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

// exportKeep lists the exported names that stay without a caller in
// product code, each with the reason it stays. A function is keyed
// "importpath.Name", a method "importpath.Type.Name". The facade's own
// API (the root package) is not checked, and what only bench/ calls
// (snapshot.StatSidecar, cobench.Station.Tuple, longobj.ReadAllShared,
// DB.Freeze) needs no row: bench/ counts as a caller.
var exportKeep = map[string]string{
	"complexobj/internal/wal.Log.SetSyncHook":     "the fsync hook crash tests arm to fail or stall a commit",
	"complexobj/internal/disk.BaseArena.Refs":     "the floor's reference count, which lifetime tests in other packages read",
	"complexobj/internal/disk.LiveArenaBytes":     "the off-heap ledger other packages' tests check at exit",
	"complexobj/internal/disk.ArenaStatsOf":       "how a loader arena was allocated, which store's load tests read",
	"complexobj/internal/disk.PagePool.Scaffolds": "the scaffolds a pool holds, which buffer and experiments tests read",
	"complexobj/internal/disk.New":                "a bare device over a fresh arena, which tests in other packages build",
	"complexobj/internal/disk.Open":               "a bare device over a base's pages, which tests in other packages build",
	"complexobj/internal/buffer.Pool.Borrows":     "the zero-copy fix count, which store's borrow tests read",
	"complexobj/cobench.FreeList.FreshBytes":      "the extension memory a free list drew fresh, which experiments' recycling test reads",
	"complexobj/internal/metrics.Snapshot.Merge":  "folds per-shard snapshots, for a fleet-level /metrics",
	"complexobj/nf2.TupleType.DecodeAttr":         "the reference decoder the lent decoders are tested against",
	"complexobj/nf2.TupleType.Encode":             "the reference encoder the Appender is tested against",
	"complexobj/internal/snapshot.OpenBaseHeap":   "the heap-copy reference mapped bases are tested against, CI's mapped ≪ heap step included",
	"complexobj/costmodel.BestCaseQ2b":            "the best-case bound of the query-2b estimate, with the estimator's fate undecided",
	"complexobj/costmodel.WorstCaseQ2b":           "the worst-case bound of the query-2b estimate, with the estimator's fate undecided",
}

// TestExportsHaveProductCallers keeps exported API from outliving its
// callers. It parses every non-test Go file of the module (bench/ and
// cmd/ included) and fails when an exported top-level function outside
// the root package is named by no non-test file, or an exported method's
// name appears in no non-test selector. Import aliases are resolved, so
// functions are matched by package and name; methods by name alone, which
// can only call a dead method used, never a used one dead. A name without
// a product caller is deleted, moved into its package's export_test.go,
// or listed in exportKeep with its reason.
func TestExportsHaveProductCallers(t *testing.T) {
	const module = "complexobj"
	type fileInfo struct {
		pkg  string // import path of the file's package
		file *ast.File
	}
	var files []fileInfo
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, fileInfo{path.Join(module, filepath.ToSlash(filepath.Dir(p))), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	type export struct {
		pos    token.Position
		method string // the method's name; "" for a function
	}
	exports := map[string]export{} // keyed as exportKeep is
	used := map[string]bool{}      // function keys named by some file
	selectors := map[string]bool{} // every selector name in any file
	for _, fi := range files {
		pkg := fi.pkg
		imports := map[string]string{} // local name → import path
		for _, imp := range fi.file.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		for _, d := range fi.file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || pkg == module || fi.file.Name.Name == "main" {
				continue
			}
			if fd.Recv == nil {
				exports[pkg+"."+fd.Name.Name] = export{pos: fset.Position(fd.Pos())}
				continue
			}
			typ := fd.Recv.List[0].Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			switch g := typ.(type) {
			case *ast.IndexExpr:
				typ = g.X
			case *ast.IndexListExpr:
				typ = g.X
			}
			if id, ok := typ.(*ast.Ident); ok && id.IsExported() {
				exports[pkg+"."+id.Name+"."+fd.Name.Name] = export{fset.Position(fd.Pos()), fd.Name.Name}
			}
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl: // its own name is no use of it; its body may be
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.SelectorExpr:
				selectors[n.Sel.Name] = true
				if id, ok := n.X.(*ast.Ident); ok && imports[id.Name] != "" {
					used[imports[id.Name]+"."+n.Sel.Name] = true
					return false
				}
				ast.Inspect(n.X, visit) // not n.Sel: a field or method name is no function of pkg
				return false
			case *ast.Ident: // possibly a function of pkg itself
				used[pkg+"."+n.Name] = true
			}
			return true
		}
		ast.Inspect(fi.file, visit)
	}

	var dead []string
	for key, e := range exports {
		if _, keep := exportKeep[key]; keep || used[key] || e.method != "" && selectors[e.method] {
			continue
		}
		dead = append(dead, e.pos.String()+": "+key)
	}
	slices.Sort(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller in any non-test file: delete it, move it into its package's export_test.go, or keep it in exportKeep with a reason", d)
	}
	for key, why := range exportKeep {
		if _, ok := exports[key]; !ok {
			t.Errorf("exportKeep names %s, which is no exported function or method of the module", key)
		}
		if why == "" {
			t.Errorf("exportKeep row %s gives no reason", key)
		}
	}
}
