//go:build detcheck

package dfccl_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// TestNoMapRange is the determinism scan `make detcheck` runs: it
// type-checks every non-test package of the module, cmd/ included
// (benchmark/ is a module of its own and is left out), and fails on
// each range over a map. Go randomizes map iteration order, so such a
// loop lets a run's event order or output depend on it. Files come
// from go/build, so only one of a build-tag pair (internal/mem's
// lent.go and lent_check.go) is checked.
func TestNoMapRange(t *testing.T) {
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*types.Package{}
	var found []string
	var check func(path string) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if path == "dfccl" || strings.HasPrefix(path, "dfccl/") {
			return check(path)
		}
		return std.Import(path)
	})
	check = func(path string) (*types.Package, error) {
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		dir := "." + strings.TrimPrefix(path, "dfccl")
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
		pkg, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if r, ok := n.(*ast.RangeStmt); ok {
					if _, isMap := info.TypeOf(r.X).Underlying().(*types.Map); isMap {
						found = append(found, fset.Position(r.Pos()).String())
					}
				}
				return true
			})
		}
		checked[path] = pkg
		return pkg, nil
	}
	packages := 0
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir == "benchmark" || d.Name() == "testdata" || (dir != "." && strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if errors.As(err, new(*build.NoGoError)) || (err == nil && len(bp.GoFiles) == 0) {
			return nil
		}
		if err != nil {
			return err
		}
		packages++
		path := "dfccl"
		if dir != "." {
			path += "/" + filepath.ToSlash(dir)
		}
		_, err = check(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if packages < 10 {
		t.Fatalf("scanned %d packages; the walk lost the module", packages)
	}
	if len(found) > 0 {
		t.Fatalf("%d range(s) over a map, whose order Go randomizes:\n  %s", len(found), strings.Join(found, "\n  "))
	}
	t.Logf("%d packages, no range over a map", packages)
}
