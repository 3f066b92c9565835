package transparentedge_test

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestRootExportsAreNamed is the ratchet on the facade: every name package
// transparentedge exports is named somewhere a user of the library looks — a
// README.md snippet (transparentedge.Name), a program under examples/ or
// cmd/, or a root test. An export nothing names is an alias waiting to rot,
// so the facade cannot grow back one unused name at a time.
func TestRootExportsAreNamed(t *testing.T) {
	exported := map[string]token.Position{}
	named := map[string]bool{}
	goFiles(t, ".", "", true, func(fset *token.FileSet, f *ast.File) {
		path := filepath.ToSlash(fset.Position(f.Pos()).Filename)
		switch {
		case f.Name.Name == "transparentedge":
			for _, d := range f.Decls {
				for _, id := range topLevelNames(d) {
					if id.IsExported() {
						exported[id.Name] = fset.Position(id.Pos())
					}
				}
			}
		case !strings.Contains(path, "/") || strings.HasPrefix(path, "examples/") || strings.HasPrefix(path, "cmd/"):
			for name := range selectorsOf(f, "transparentedge") {
				named[name] = true
			}
		}
	})
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range regexp.MustCompile(`\btransparentedge\.(\w+)`).FindAllStringSubmatch(string(readme), -1) {
		named[m[1]] = true
	}
	if len(exported) == 0 {
		t.Fatal("package transparentedge exports nothing")
	}
	for name, pos := range exported {
		if !named[name] {
			t.Errorf("%s: %s is exported but named by no README snippet, example, command or root test: delete it", pos, name)
		}
	}
}

// topLevelNames returns the identifiers a top-level declaration declares;
// methods declare none at package level.
func topLevelNames(d ast.Decl) []*ast.Ident {
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			return []*ast.Ident{d.Name}
		}
	case *ast.GenDecl:
		var ids []*ast.Ident
		for _, spec := range d.Specs {
			switch spec := spec.(type) {
			case *ast.TypeSpec:
				ids = append(ids, spec.Name)
			case *ast.ValueSpec:
				ids = append(ids, spec.Names...)
			}
		}
		return ids
	}
	return nil
}

// selectorsOf returns the names f selects from the package imported from
// path (pkg.Name), under whatever name f imports it.
func selectorsOf(f *ast.File, path string) map[string]bool {
	local := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == path {
			local = filepath.Base(path)
			if imp.Name != nil {
				local = imp.Name.Name
			}
		}
	}
	out := map[string]bool{}
	if local == "" {
		return out
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
				out[sel.Sel.Name] = true
			}
		}
		return true
	})
	return out
}
