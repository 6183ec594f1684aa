// Command doccheck enforces the repository's godoc floor: every
// exported identifier in every package of the module must carry a doc
// comment. It walks the module from the working directory, skipping
// testdata, directories Go ignores (named with a leading "." or "_") and
// nested modules (benchmark/), parses the source with go/ast — no
// external linters — and exits non-zero listing each undocumented
// identifier as file:line.
//
// An identifier counts as documented if its own declaration has a doc
// comment, or (for grouped const/var/type specs) the enclosing group
// does — matching the standard godoc attachment rules. Test files, and
// methods of unexported types (godoc does not show them), are skipped.
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
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"unicode/utf8"
)

// changesCap is the most characters the newest CHANGES.md entry may
// hold: what one reader takes in at once.
const changesCap = 1500

func main() {
	if err := checkChanges("CHANGES.md"); err != nil {
		fmt.Fprintln(os.Stderr, "doccheck:", err)
		os.Exit(1)
	}
	var missing []string
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		_, modErr := os.Stat(filepath.Join(dir, "go.mod")) // below the root: a module of its own
		if dir != "." && (modErr == nil || d.Name() == "testdata" || strings.ContainsAny(d.Name()[:1], "._")) {
			return filepath.SkipDir
		}
		m, err := checkDir(dir)
		missing = append(missing, m...)
		return err
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "doccheck:", err)
		os.Exit(2)
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
// ident" entry per undocumented exported identifier; a directory
// without Go files has none.
func checkDir(dir string) ([]string, error) {
	bp, err := build.Default.ImportDir(dir, 0)
	if _, ok := err.(*build.NoGoError); ok {
		return nil, nil
	} else if err != nil {
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
				if label, shown := funcLabel(d); shown && d.Name.IsExported() && d.Doc == nil {
					report(d.Pos(), label)
				}
			case *ast.GenDecl:
				checkGenDecl(d, report)
			}
		}
	}
	return missing, nil
}

// funcLabel renders a function or method name, including the receiver
// type for methods, and reports whether godoc shows it: not a method of
// an unexported type.
func funcLabel(d *ast.FuncDecl) (string, bool) {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name, true
	}
	recv := d.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return fmt.Sprintf("(%s).%s", id.Name, d.Name.Name), id.IsExported()
	}
	return d.Name.Name, true
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
