package transparentedge_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// nonTestFiles parses the non-test sources under root, leaving out the skip
// directory and dot-directories, and hands each file to visit.
func nonTestFiles(t *testing.T, root, skip string, visit func(fset *token.FileSet, f *ast.File)) {
	t.Helper()
	goFiles(t, root, skip, false, visit)
}

// goFiles does the same with the test sources included when tests is set.
func goFiles(t *testing.T, root, skip string, tests bool, visit func(fset *token.FileSet, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.FromSlash(skip) || (len(d.Name()) > 1 && d.Name()[0] == '.') {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || (!tests && strings.HasSuffix(path, "_test.go")) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		visit(fset, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// nonTestCalls reports every selector call x.name(...) in those files with
// its argument count.
func nonTestCalls(t *testing.T, root, skip string, visit func(pos token.Position, name string, args int)) {
	t.Helper()
	nonTestFiles(t, root, skip, func(fset *token.FileSet, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					visit(fset.Position(call.Pos()), sel.Sel.Name, len(call.Args))
				}
			}
			return true
		})
	})
}

// TestSimProcHandOffIsCoroutineOnly keeps the old process hand-off (a
// goroutine per process and two channels, DESIGN §23) from coming back beside
// the coroutine: outside shard.go, whose window workers are goroutines, the
// kernel package starts no goroutine and names no channel type.
func TestSimProcHandOffIsCoroutineOnly(t *testing.T) {
	nonTestFiles(t, "internal/sim", "", func(fset *token.FileSet, f *ast.File) {
		if filepath.Base(fset.Position(f.Pos()).Filename) == "shard.go" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.GoStmt:
				t.Errorf("%s: go statement in internal/sim", fset.Position(n.Pos()))
			case *ast.ChanType:
				t.Errorf("%s: channel type in internal/sim", fset.Position(n.Pos()))
			}
			return true
		})
	})
}

// kernelGoCallSites is the number of places under internal/ (outside the
// kernel package itself, tests excluded) that start a process: with
// Kernel.Go, or with Cont.Go, which hands a continuation's activity to a
// process. It only goes down: DESIGN.md §21 lists what is left and in which
// order it is to be ported.
const kernelGoCallSites = 6

// TestKernelGoCallSites is the ratchet on processes: it counts the
// x.Go(name, body) calls. Nothing else in the module has a two-argument
// method named Go.
func TestKernelGoCallSites(t *testing.T) {
	got := 0
	nonTestCalls(t, "internal", "internal/sim", func(pos token.Position, name string, args int) {
		if name == "Go" && args == 2 {
			got++
			t.Logf("%s", pos)
		}
	})
	if got != kernelGoCallSites {
		t.Errorf("%d Kernel.Go and Cont.Go call sites under internal/, recorded %d: lower the number when you remove a proc; adding one needs a row in DESIGN §21",
			got, kernelGoCallSites)
	}
}

// nodeProcTakers are the only functions under the node's packages
// (internal/container, internal/registry) that take a *sim.Proc: the blocking
// adapters the clusters' Pull phases call. The node's own work runs on kernel
// callbacks and continuations.
var nodeProcTakers = []string{"Client.Pull", "Runtime.PullImage"}

// TestNodeRunsOnKernel is the ratchet on the node layer: no other function or
// function literal under internal/container or internal/registry takes a
// *sim.Proc, and nothing under internal/kube starts a process (Kernel.Go or
// Cont.Go), the kubelet included.
func TestNodeRunsOnKernel(t *testing.T) {
	var got []string
	takesProc := func(ft *ast.FuncType) bool {
		found := false
		ast.Inspect(ft.Params, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Proc" {
				found = true
			}
			return true
		})
		return found
	}
	for _, dir := range []string{"internal/container", "internal/registry"} {
		nonTestFiles(t, dir, "", func(fset *token.FileSet, f *ast.File) {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if takesProc(n.Type) {
						name := n.Name.Name
						if n.Recv != nil {
							recv := n.Recv.List[0].Type
							if star, ok := recv.(*ast.StarExpr); ok {
								recv = star.X
							}
							if id, ok := recv.(*ast.Ident); ok {
								name = id.Name + "." + name
							}
						}
						got = append(got, name)
					}
				case *ast.FuncLit:
					if takesProc(n.Type) {
						got = append(got, fmt.Sprintf("func literal at %s", fset.Position(n.Pos())))
					}
				}
				return true
			})
		})
	}
	slices.Sort(got)
	if !slices.Equal(got, nodeProcTakers) {
		t.Errorf("functions under internal/container and internal/registry taking a *sim.Proc = %v, want only %v: run the node's work on kernel callbacks", got, nodeProcTakers)
	}
	nonTestCalls(t, "internal/kube", "", func(pos token.Position, name string, args int) {
		if name == "Go" && args == 2 {
			t.Errorf("%s: a process started under internal/kube; run it as a sim.Cont", pos)
		}
	})
}

// newEventCallSites is the number of non-test NewEvent calls outside
// internal/sim and internal/simnet, whose per-link and per-call timers are
// the data path's own. A re-armable event elsewhere is a state machine of its
// own beside sim.Cont; the number only goes down.
const newEventCallSites = 0

// TestOneContinuationForm is the ratchet on continuations (DESIGN §21):
// sim.Cont is the one form, so no non-test file outside internal/sim declares
// a self-referential step type (type X[T any] func(*T) X[T]), and NewEvent
// is called only where recorded.
func TestOneContinuationForm(t *testing.T) {
	nonTestFiles(t, ".", "internal/sim", func(fset *token.FileSet, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.TypeParams == nil {
				return true
			}
			if fn, ok := ts.Type.(*ast.FuncType); ok && fn.Results != nil {
				for _, r := range fn.Results.List {
					var x ast.Expr
					switch r := r.Type.(type) {
					case *ast.IndexExpr:
						x = r.X
					case *ast.IndexListExpr:
						x = r.X
					}
					if id, ok := x.(*ast.Ident); ok && id.Name == ts.Name.Name {
						t.Errorf("%s: step type %s outside internal/sim; use sim.Step", fset.Position(ts.Pos()), id.Name)
					}
				}
			}
			return true
		})
	})
	got := 0
	nonTestCalls(t, ".", "internal/sim", func(pos token.Position, name string, args int) {
		if name == "NewEvent" && !strings.HasPrefix(filepath.ToSlash(pos.Filename), "internal/simnet/") {
			got++
			t.Logf("%s", pos)
		}
	})
	if got != newEventCallSites {
		t.Errorf("%d NewEvent call sites outside internal/sim and internal/simnet, recorded %d: a timer of an activity is a sim.Cont; lower the number when one goes",
			got, newEventCallSites)
	}
}

// httpGetCallers lists, by file, the non-test callers of the blocking
// Host.HTTPGet. It only shrinks: each is a process waiting to become an
// HTTPGetAsync callback, and when the map is empty HTTPGet goes.
var httpGetCallers = map[string]int{
	"examples/mobility/main.go":     3,
	"internal/experiments/scale.go": 1,
	"internal/testbed/site.go":      1,
}

// TestBlockingConnCallSites is the ratchet on the process-style connection
// surface (DESIGN §15): a Conn is driven only through a ConnHandler, so no
// file outside internal/sim, tests included, declares a Dial, Listen or Recv
// that takes a *sim.Proc, and HTTPGet is called only where recorded.
func TestBlockingConnCallSites(t *testing.T) {
	goFiles(t, ".", "internal/sim", true, func(fset *token.FileSet, f *ast.File) {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || (fn.Name.Name != "Dial" && fn.Name.Name != "Listen" && fn.Name.Name != "Recv") {
				continue
			}
			ast.Inspect(fn.Type.Params, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Proc" {
					t.Errorf("%s: %s takes a *sim.Proc; drive the Conn through a ConnHandler", fset.Position(fn.Pos()), fn.Name.Name)
				}
				return true
			})
		}
	})
	got := map[string]int{}
	nonTestCalls(t, ".", "", func(pos token.Position, name string, args int) {
		if name == "HTTPGet" && args == 5 {
			got[filepath.ToSlash(pos.Filename)]++
		}
	})
	if !reflect.DeepEqual(got, httpGetCallers) {
		t.Errorf("non-test HTTPGet callers by file = %v, recorded %v: shrink the record when one is ported; do not add one", got, httpGetCallers)
	}
}

// surfaceCounts records the settings of core.Config and testbed.Options and
// the exported methods of *kube.APIServer (its object stores are fields, one
// per kind). Each number only goes down.
var surfaceCounts = map[string]int{
	"core.Config fields":              14,
	"testbed.Options fields":          22,
	"kube.APIServer exported methods": 6,
}

// TestSurfaceCounts is the ratchet on settings and pass-throughs: a field of
// core.Config or testbed.Options that nothing sets, or a typed wrapper on
// the API server around a Store operation, is a second way in.
func TestSurfaceCounts(t *testing.T) {
	got := map[string]int{}
	count := func(dir, typ, key string) {
		nonTestFiles(t, dir, "", func(_ *token.FileSet, f *ast.File) {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.Name == typ {
							for _, field := range ts.Type.(*ast.StructType).Fields.List {
								got[key+" fields"] += max(len(field.Names), 1)
							}
						}
					}
				case *ast.FuncDecl:
					if d.Recv != nil && d.Name.IsExported() {
						if star, ok := d.Recv.List[0].Type.(*ast.StarExpr); ok {
							if id, ok := star.X.(*ast.Ident); ok && id.Name == typ {
								got[key+" exported methods"]++
							}
						}
					}
				}
			}
		})
	}
	count("internal/core", "Config", "core.Config")
	count("internal/testbed", "Options", "testbed.Options")
	count("internal/kube", "APIServer", "kube.APIServer")
	for key, want := range surfaceCounts {
		if got[key] > want {
			t.Errorf("%s = %d, recorded %d: add no setting nothing sets and no pass-through", key, got[key], want)
		} else if got[key] < want {
			t.Errorf("%s = %d, recorded %d: lower the record", key, got[key], want)
		}
	}
}

// TestDocsNameRealTests is the doc-lint: every test, benchmark or fuzz target
// that README.md, DESIGN.md or EXPERIMENTS.md names between back quotes is a
// function somewhere in the module (`TestFoo*` names a prefix; what follows a
// `/` is a subtest and not looked at). The docs cite tests as the place a
// claim is pinned, and a citation of a renamed or deleted test pins nothing.
func TestDocsNameRealTests(t *testing.T) {
	funcs := map[string]bool{}
	goFiles(t, ".", "", true, func(_ *token.FileSet, f *ast.File) {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs[fn.Name.Name] = true
			}
		}
	})
	quoted := regexp.MustCompile("`[^`\n]+`")
	// Testbed and the like are not tests: after the prefix comes no lower case.
	name := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*\*?`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, span := range quoted.FindAllString(line, -1) {
				for _, n := range name.FindAllString(span, -1) {
					found := funcs[n]
					if prefix, ok := strings.CutSuffix(n, "*"); ok {
						for fn := range funcs {
							found = found || strings.HasPrefix(fn, prefix)
						}
					}
					if !found {
						t.Errorf("%s:%d: `%s` names no function in the module", doc, i+1, n)
					}
				}
			}
		}
	}
}

// TestDocsNameRealDeclarations is the doc-lint's other half: every `pkg.Name`
// or `pkg.Type.Member` that README.md, DESIGN.md or EXPERIMENTS.md names
// between back quotes, with pkg a package of this module, is declared there —
// a function, type, variable or constant, or a field or method of the type,
// promoted ones included. Standard-library names and local variables (`q.Add`)
// have no module package as qualifier and are not looked at, nor are the
// benchmark's metric names (`sim.events_per_req`, `kube.ops`), which have no
// upper-case letter where a declaration would be named.
func TestDocsNameRealDeclarations(t *testing.T) {
	type decls struct {
		top     map[string]bool
		members map[string]map[string]bool // type name -> its fields and methods
		embeds  map[string][]string        // type name -> the package's types it embeds
	}
	pkgs := map[string]*decls{}
	typeName := func(e ast.Expr) string {
		for {
			switch x := e.(type) {
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.IndexListExpr:
				e = x.X
			case *ast.Ident:
				return x.Name
			default:
				return ""
			}
		}
	}
	goFiles(t, ".", "", true, func(_ *token.FileSet, f *ast.File) {
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if pkg == "main" {
			return
		}
		d := pkgs[pkg]
		if d == nil {
			d = &decls{top: map[string]bool{}, members: map[string]map[string]bool{}, embeds: map[string][]string{}}
			pkgs[pkg] = d
		}
		member := func(typ, name string) {
			if d.members[typ] == nil {
				d.members[typ] = map[string]bool{}
			}
			d.members[typ][name] = true
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					d.top[decl.Name.Name] = true
				} else {
					member(typeName(decl.Recv.List[0].Type), decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							d.top[n.Name] = true
						}
					case *ast.TypeSpec:
						d.top[spec.Name.Name] = true
						var fields []*ast.Field
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							fields = typ.Fields.List
						case *ast.InterfaceType:
							fields = typ.Methods.List
						}
						for _, field := range fields {
							for _, n := range field.Names {
								member(spec.Name.Name, n.Name)
							}
							if embedded := typeName(field.Type); len(field.Names) == 0 && embedded != "" {
								member(spec.Name.Name, embedded)
								d.embeds[spec.Name.Name] = append(d.embeds[spec.Name.Name], embedded)
							}
						}
					}
				}
			}
		}
	})
	var has func(d *decls, typ, name string, depth int) bool
	has = func(d *decls, typ, name string, depth int) bool {
		if d.members[typ][name] {
			return true
		}
		for _, e := range d.embeds[typ] {
			if depth < 4 && has(d, e, name, depth+1) {
				return true
			}
		}
		return false
	}
	quoted := regexp.MustCompile("`[^`\n]+`")
	ref := regexp.MustCompile(`(?:^|[^\w.])([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)
	upper := regexp.MustCompile(`[A-Z]`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, span := range quoted.FindAllString(line, -1) {
				for _, m := range ref.FindAllStringSubmatch(span, -1) {
					d, name, mem := pkgs[m[1]], m[2], m[3]
					if d == nil || token.IsKeyword(name) || !upper.MatchString(name) { // kube.go, sim.events_per_req
						continue
					}
					if !d.top[name] || (mem != "" && !has(d, name, mem, 0)) {
						t.Errorf("%s:%d: `%s` is declared nowhere in package %s", doc, i+1, strings.TrimLeft(m[0], "`( "), m[1])
					}
				}
			}
		}
	}
}
