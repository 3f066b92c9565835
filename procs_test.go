package transparentedge_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// kernelGoCallSites is the number of places under internal/ (outside the
// kernel package itself, tests excluded) that start a goroutine-backed
// process with Kernel.Go. It only goes down: DESIGN.md §21 lists what is
// left and in which order it is to be ported.
const kernelGoCallSites = 31

// TestKernelGoCallSites is the ratchet on goroutine-backed processes: it
// parses the non-test sources and counts the x.Go(name, func) calls. Nothing
// else in the module has a two-argument method named Go.
func TestKernelGoCallSites(t *testing.T) {
	fset := token.NewFileSet()
	got := 0
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join("internal", "sim") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 2 {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Go" {
				got++
				t.Logf("%s", fset.Position(call.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != kernelGoCallSites {
		t.Errorf("%d Kernel.Go call sites under internal/, recorded %d: lower the number when you remove a proc; adding one needs a row in DESIGN §21",
			got, kernelGoCallSites)
	}
}
