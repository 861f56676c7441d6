package complexobj_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestInternalPackageDocs is the godoc-presence check (run in CI): every
// internal package must carry a doc.go whose package comment documents
// the package contract. Keeping the comment in a dedicated doc.go (rather
// than scattered over implementation files) is what makes this check — and
// the review habit it enforces — trivial.
func TestInternalPackageDocs(t *testing.T) {
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no internal packages found")
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		dir := filepath.Join("internal", d.Name())
		t.Run(d.Name(), func(t *testing.T) {
			docPath := filepath.Join(dir, "doc.go")
			if _, err := os.Stat(docPath); err != nil {
				t.Fatalf("%s: missing doc.go (package comments live there)", dir)
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, docPath, nil, parser.ParseComments|parser.PackageClauseOnly)
			if err != nil {
				t.Fatal(err)
			}
			if f.Doc == nil || len(strings.TrimSpace(f.Doc.Text())) < 80 {
				t.Errorf("%s: doc.go has no substantive package comment", dir)
			}
			if !strings.HasPrefix(f.Doc.Text(), "Package "+f.Name.Name) {
				t.Errorf("%s: package comment does not start with %q", dir, "Package "+f.Name.Name)
			}
			// doc.go must stay documentation-only and the comment must not
			// be duplicated on another file's package clause.
			pkgs, err := parser.ParseDir(fset, dir, nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			for _, pkg := range pkgs {
				for path, file := range pkg.Files {
					if filepath.Base(path) != "doc.go" && file.Doc != nil {
						t.Errorf("%s: second package comment in %s (keep it in doc.go)", dir, path)
					}
				}
			}
		})
	}
}

// TestPaperMapCoverage pins the acceptance bar for docs/PAPER_MAP.md: it
// must cover every table (1-8) and figure (5-6) of the paper, name the
// -list discovery flag, and be cross-linked from the README.
func TestPaperMapCoverage(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("docs", "PAPER_MAP.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	for i := 1; i <= 8; i++ {
		if want := fmt.Sprintf("### Table %d", i); !strings.Contains(doc, want) {
			t.Errorf("PAPER_MAP.md missing a %q section", want)
		}
	}
	for _, fig := range []int{5, 6} {
		if want := fmt.Sprintf("### Figure %d", fig); !strings.Contains(doc, want) {
			t.Errorf("PAPER_MAP.md missing a %q section", want)
		}
	}
	for _, needle := range []string{"cotables -list", "experiments.Suite.Matrix()", "change-attribute", "Index I/O"} {
		if !strings.Contains(doc, needle) {
			t.Errorf("PAPER_MAP.md does not mention %q", needle)
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(readme), "docs/PAPER_MAP.md") {
		t.Error("README does not link docs/PAPER_MAP.md")
	}
	if !strings.Contains(string(readme), "## Parallelism & memory") {
		t.Error("README missing the 'Parallelism & memory' section")
	}
}

// mapName matches a backticked Go name in docs/PAPER_MAP.md: pkg.Name or
// pkg.Type.Member, optionally called, optionally with its import path
// (`internal/longobj.ChangeComponent`).
var mapName = regexp.MustCompile("`(?:[a-z0-9]+/)*([a-z][a-z0-9]*)\\.([A-Za-z_][A-Za-z0-9_]*)(?:\\.([A-Za-z_][A-Za-z0-9_]*))?(?:\\(\\))?`")

// TestPaperMapNamesResolve keeps docs/PAPER_MAP.md from naming code that
// no longer exists: every backticked pkg.Name must be a top-level func,
// type, var or const of a package of this module (bench/ aside), and every
// pkg.Type.Member a method, field or interface method of that type. A
// backticked name whose first part is no package of the module (a file
// name, a flag) is not checked.
func TestPaperMapNamesResolve(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("docs", "PAPER_MAP.md"))
	if err != nil {
		t.Fatal(err)
	}
	// decls[pkg][name] is the set of members of name: empty for a func,
	// var or const, the methods and fields for a type.
	decls := map[string]map[string]map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || path == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := decls[f.Name.Name]
		if pkg == nil {
			pkg = map[string]map[string]bool{}
			decls[f.Name.Name] = pkg
		}
		members := func(name string) map[string]bool {
			if pkg[name] == nil {
				pkg[name] = map[string]bool{}
			}
			return pkg[name]
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					members(decl.Name.Name)
					continue
				}
				typ := decl.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				switch g := typ.(type) {
				case *ast.IndexExpr:
					typ = g.X
				case *ast.IndexListExpr:
					typ = g.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					members(id.Name)[decl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							members(id.Name)
						}
					case *ast.TypeSpec:
						m := members(spec.Name.Name)
						var fields *ast.FieldList
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							fields = typ.Fields
						case *ast.InterfaceType:
							fields = typ.Methods
						}
						if fields == nil {
							continue
						}
						for _, field := range fields.List {
							for _, id := range field.Names {
								m[id.Name] = true
							}
							if len(field.Names) == 0 { // embedded: named by its type
								typ := field.Type
								if star, ok := typ.(*ast.StarExpr); ok {
									typ = star.X
								}
								if sel, ok := typ.(*ast.SelectorExpr); ok {
									typ = sel.Sel
								}
								if id, ok := typ.(*ast.Ident); ok {
									m[id.Name] = true
								}
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, m := range mapName.FindAllStringSubmatch(string(raw), -1) {
		pkg, ok := decls[m[1]]
		if !ok {
			continue
		}
		checked++
		members, ok := pkg[m[2]]
		switch {
		case !ok:
			t.Errorf("PAPER_MAP.md names %s, but package %s declares no %s", m[0], m[1], m[2])
		case m[3] != "" && !members[m[3]]:
			t.Errorf("PAPER_MAP.md names %s, but %s.%s has no method or field %s", m[0], m[1], m[2], m[3])
		}
	}
	if checked == 0 {
		t.Error("PAPER_MAP.md names no package member; is the pattern still right?")
	}
	t.Logf("%d names resolved", checked)
}
