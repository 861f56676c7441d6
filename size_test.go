package complexobj_test

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
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
	"complexobj/cobench.Station.Equal":            "deep equality of two stations, the oracle store and facade tests compare every read with",
	"complexobj/cobench.Station.Children":         "an object's child list, which store, workload and facade tests check navigation against",
	"complexobj/internal/disk.PagePool.Stats":     "the pool's gets, hits and held pages, which experiments' recycling tests read",
	"complexobj/internal/disk.Disk.Retries":       "the device's retry count, which store's fault tests read",
	"complexobj/nf2.TupleType.Equal":              "deep equality under a schema, which the NF² example and cobench's tree-oracle test use",
	"complexobj/nf2.Value.Int":                    "a decoded value's payload, which the NF² example prints",
	"complexobj/nf2.Value.Str":                    "a decoded value's payload, which the NF² example prints",
	"complexobj/nf2.Value.Tuples":                 "a decoded value's payload, which the NF² example prints",
}

// TestExportsHaveProductCallers keeps exported API from outliving its
// callers. It type-checks every non-test Go file of the module that the
// default build context selects (bench/ and cmd/ included) with go/types
// and fails when an exported top-level function or method outside the
// root package has no use in any of them. A function is used where an
// identifier resolves to it; a method where it is selected on its own type
// (or one embedding it), or where a method of the same name is selected
// through an interface — named or anonymous — that its type, or a pointer
// to it, satisfies; fmt counts as calling String through fmt.Stringer.
// A name without a product caller is deleted, moved
// into its package's export_test.go, or listed in exportKeep with its
// reason.
func TestExportsHaveProductCallers(t *testing.T) {
	const module = "complexobj"
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path → its non-test files
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
		if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join(module, filepath.ToSlash(filepath.Dir(p)))
		files[pkg] = append(files[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	imp := &moduleImporter{fset: fset, files: files, info: info, std: importer.Default(), pkgs: map[string]*types.Package{}}
	for p := range files {
		if _, err := imp.Import(p); err != nil {
			t.Fatal(err)
		}
	}

	exports := map[string]*types.Func{} // keyed as exportKeep is
	for p, pkg := range imp.pkgs {
		if p == module || pkg.Name() == "main" {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					exports[p+"."+name] = obj
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || !obj.Exported() || types.IsInterface(named) {
					continue
				}
				for m := range named.Methods() {
					if m.Exported() {
						exports[p+"."+name+"."+m.Name()] = m
					}
				}
			}
		}
	}

	used := map[*types.Func]bool{}   // functions and concrete methods some file uses
	called := map[*types.Func]bool{} // interface methods some file calls
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			fn = fn.Origin()
			if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
				called[fn] = true
			} else {
				used[fn] = true
			}
		}
	}
	// fmt calls String through fmt.Stringer on every value it formats.
	fmtPkg, err := imp.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	called[fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface).Method(0)] = true
	for im := range called {
		iface := im.Signature().Recv().Type().Underlying().(*types.Interface)
		for _, fn := range exports {
			// *T's method set holds T's too, so *T satisfying iface
			// covers both receivers.
			if recv := fn.Signature().Recv(); recv != nil && !used[fn] && fn.Name() == im.Name() &&
				types.Implements(types.NewPointer(deref(recv.Type())), iface) {
				used[fn] = true
			}
		}
	}

	var dead []string
	for key, fn := range exports {
		if _, keep := exportKeep[key]; !keep && !used[fn] {
			dead = append(dead, fset.Position(fn.Pos()).String()+": "+key)
		}
	}
	slices.Sort(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller in any non-test file: delete it, move it into its package's export_test.go, or keep it in exportKeep with a reason", d)
	}
	for key, why := range exportKeep {
		if exports[key] == nil {
			t.Errorf("exportKeep names %s, which is no exported function or method of the module", key)
		}
		if why == "" {
			t.Errorf("exportKeep row %s gives no reason", key)
		}
	}
}

// moduleImporter type-checks the module's packages from their parsed
// files, once each and on first import, recording uses into one Info;
// every other import path is the standard library's export data.
type moduleImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	info  *types.Info
	std   types.Importer
	pkgs  map[string]*types.Package
}

func (m *moduleImporter) Import(p string) (*types.Package, error) {
	if pkg, ok := m.pkgs[p]; ok {
		return pkg, nil
	}
	files, ok := m.files[p]
	if !ok {
		return m.std.Import(p)
	}
	pkg, err := (&types.Config{Importer: m}).Check(p, m.fset, files, m.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", p, err)
	}
	m.pkgs[p] = pkg
	return pkg, nil
}

// deref strips one pointer from t.
func deref(t types.Type) types.Type {
	if ptr, ok := t.(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}
