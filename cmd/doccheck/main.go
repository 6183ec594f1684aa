// Command doccheck enforces the repository's godoc floor: every
// exported identifier in the audited packages (the root dfccl package,
// internal/prim, internal/orch, internal/fabric, internal/tune,
// internal/trace, internal/metrics, internal/cudasim, internal/core,
// internal/sim, internal/mem, internal/topo, internal/cluster,
// internal/chaos, internal/ncclsim and internal/train) must carry a doc
// comment. It parses the source with
// go/ast — no external linters — and exits non-zero listing each
// undocumented identifier as file:line.
//
// An identifier counts as documented if its own declaration has a doc
// comment, or (for grouped const/var/type specs) the enclosing group
// does — matching the standard godoc attachment rules. Test files are
// skipped.
//
// It also holds the changelog to its length cap: the newest entry of
// CHANGES.md, its last line, must be at most 1 500 characters. Run it as
// `make doccheck`; `make smoke` includes it.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"unicode/utf8"
)

// auditedDirs are the packages whose exported surface must be fully
// documented. Relative to the repository root (the working directory).
var auditedDirs = []string{".", "internal/prim", "internal/orch", "internal/fabric", "internal/tune", "internal/trace", "internal/metrics", "internal/cudasim", "internal/core", "internal/sim", "internal/mem", "internal/topo", "internal/cluster", "internal/chaos", "internal/ncclsim", "internal/train"}

// changesCap is the most characters the newest CHANGES.md entry may
// hold: what one reader takes in at once.
const changesCap = 1500

func main() {
	if err := checkChanges("CHANGES.md"); err != nil {
		fmt.Fprintln(os.Stderr, "doccheck:", err)
		os.Exit(1)
	}
	var missing []string
	for _, dir := range auditedDirs {
		m, err := checkDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doccheck:", err)
			os.Exit(2)
		}
		missing = append(missing, m...)
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d exported identifier(s) lack doc comments:\n", len(missing))
		for _, m := range missing {
			fmt.Fprintln(os.Stderr, "  "+m)
		}
		os.Exit(1)
	}
	fmt.Println("doccheck: all exported identifiers documented")
}

// checkChanges reports an error when the newest entry of the changelog
// at path, its last non-blank line, is longer than changesCap
// characters.
func checkChanges(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	text := strings.TrimRight(string(data), " \t\n")
	newest := text[strings.LastIndexByte(text, '\n')+1:]
	if n := utf8.RuneCountInString(newest); n > changesCap {
		return fmt.Errorf("%s: the newest entry is %d characters, over the cap of %d", path, n, changesCap)
	}
	return nil
}

// checkDir parses every non-test .go file in dir, those a build tag
// leaves out included, in name order, and returns one "file:line:
// ident" entry per undocumented exported identifier.
func checkDir(dir string) ([]string, error) {
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	names := append(slices.Clone(bp.GoFiles), bp.IgnoredGoFiles...)
	slices.Sort(names)
	fset := token.NewFileSet()
	var missing []string
	report := func(pos token.Pos, name string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(p.Filename), p.Line, name))
	}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && d.Doc == nil {
					report(d.Pos(), funcLabel(d))
				}
			case *ast.GenDecl:
				checkGenDecl(d, report)
			}
		}
	}
	return missing, nil
}

// funcLabel renders a function or method name, including the receiver
// type for methods.
func funcLabel(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	recv := d.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return fmt.Sprintf("(%s).%s", id.Name, d.Name.Name)
	}
	return d.Name.Name
}

// checkGenDecl audits a const/var/type declaration. A spec inside a
// group is covered by its own doc comment, its trailing line comment,
// or the group's doc (the godoc attachment rules).
func checkGenDecl(d *ast.GenDecl, report func(token.Pos, string)) {
	if d.Tok != token.CONST && d.Tok != token.VAR && d.Tok != token.TYPE {
		return
	}
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && s.Doc == nil && d.Doc == nil && s.Comment == nil {
				report(s.Pos(), s.Name.Name)
			}
		case *ast.ValueSpec:
			for _, name := range s.Names {
				if name.IsExported() && s.Doc == nil && d.Doc == nil && s.Comment == nil {
					report(name.Pos(), name.Name)
				}
			}
		}
	}
}
