package transparentedge_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exports under internal/ that no program uses but
// that stay, each with its reason. Entries are only ever removed. A reason is
// one of: (a) a reference implementation tests compare against; (b) invariant
// introspection; (c) a control tests use to drive model code programs run;
// (d) a fig. 4 phase the paper names. exportAllowlistRecord is its size.
const exportAllowlistRecord = 21

var exportAllowlist = map[string]string{
	"container.Container.Ready":     "(b) readiness the lifecycle tests hold against the open port",
	"container.Container.ReadyAt":   "(b) the instant a container came up, which the bind-wait and control-plane tests compare",
	"core.Controller.DeleteImages":  "(d) fig. 4's optional Delete phase",
	"core.Controller.RemoveService": "(d) fig. 4's Remove phase",
	"core.FlowMemory.ServiceFlows":  "(b) the per-service index the FlowMemory model test checks against its reference",
	"kube.Cluster.Kubelet":          "(c) reaches the kubelet whose node a test fails",
	"kube.Kubelet.SetFailed":        "(c) fails a node, driving the node controller and evictions programs run",
	"metrics.Table.Cell":            "(b) reads one cell of a figure table",
	"obs.ParsePrometheus":           "(a) parses the exposition WritePrometheus writes, for the round-trip tests",
	"openflow.Match.Matches":        "(a) the brute-force match the flow table's index is tested against",
	"registry.Client.HasLayer":      "(b) the layer cache the pull and eviction tests inspect",
	"sim.Idle.Last":                 "(b) the last use the idle-timer, flow-table and FlowMemory model tests check",
	"sim.Kernel.Rand":               "(c) the seeded stream tests draw random schedules from; sim.New's seed feeds it",
	"sim.Kernel.Steps":              "(b) events fired, which the kernel tests count",
	"sim.Kernel.Pending":            "(b) live events, which tests check drain to zero",
	"sim.Kernel.NextWhen":           "(a) the plain next-event scan the wheel's lookahead is tested against",
	"sim.ShardGroup.Run":            "(c) runs a shard group's windows to completion, the loop RunUntil runs",
	"simnet.Host.PortOpen":          "(b) the listening state the container lifecycle tests hold against readiness",
	"simnet.Host.OpenConns":         "(b) connections left on a host, which tests check drain to zero",
	"simnet.Link.SetDown":           "(c) cuts a link, driving the loss and timeout paths programs run",
	"simnet.Link.ActiveTransfers":   "(b) the fair-share cohort size the link model tests check",
}

// TestExportsHaveProgramCallers is the ratchet on the layers' surfaces: every
// exported declaration in a non-test file under internal/ — package-level
// func, type, const and var, method, struct field and interface method — is
// used by non-test code (library, cmd/, examples/, bench/). A name only tests
// reach is a second API kept for them alone: delete it, or allowlist it above
// with its reason. A concrete method also counts as used when its type
// satisfies an interface whose method is used, and String, Error and Unwrap
// count as used because fmt and errors call them.
func TestExportsHaveProgramCallers(t *testing.T) {
	fset := token.NewFileSet()
	pkgs := checkModule(t, fset)

	used := map[types.Object]bool{}
	ifaceMethods := map[*types.Func]bool{} // used methods of interfaces
	var named []*types.Named               // the module's concrete types
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			obj = origin(obj)
			used[obj] = true
			if fn, ok := obj.(*types.Func); ok && isInterfaceMethod(fn) {
				ifaceMethods[fn] = true
			}
		}
		for _, sel := range p.info.Selections {
			markEmbedded(sel, used)
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) {
					named = append(named, n)
				}
			}
		}
	}
	for fn := range ifaceMethods {
		iface := fn.Signature().Recv().Type().Underlying().(*types.Interface)
		for _, n := range named {
			for _, impl := range []types.Type{n, types.NewPointer(n)} {
				if satisfies(impl, iface) {
					m, _, _ := types.LookupFieldOrMethod(impl, false, fn.Pkg(), fn.Name())
					used[m] = true
					break
				}
			}
		}
	}

	var unused []string
	allowed := map[string]bool{}
	report := func(obj types.Object, name string) {
		if !obj.Exported() || used[obj] {
			return
		}
		if _, ok := exportAllowlist[name]; ok {
			allowed[name] = true
			return
		}
		unused = append(unused, fset.Position(obj.Pos()).String()+": "+name)
	}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.pkg.Path(), "transparentedge/internal/") {
			continue
		}
		qual := path.Base(p.pkg.Path()) + "."
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			report(obj, qual+name)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n := tn.Type().(*types.Named)
			for m := range n.Methods() {
				if !(m.Name() == "String" || m.Name() == "Error" || m.Name() == "Unwrap") {
					report(m, qual+name+"."+m.Name())
				}
			}
			switch u := n.Underlying().(type) {
			case *types.Struct:
				for f := range u.Fields() {
					report(f, qual+name+"."+f.Name())
				}
			case *types.Interface:
				for m := range u.ExplicitMethods() {
					report(m, qual+name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but no program uses it: delete it, or allowlist it with its reason", u)
	}
	for name, reason := range exportAllowlist {
		if !allowed[name] {
			t.Errorf("allowlisted %s is gone or used by a program: remove its entry", name)
		}
		if c := reason[:min(len(reason), 4)]; c != "(a) " && c != "(b) " && c != "(c) " && c != "(d) " {
			t.Errorf("allowlisted %s: reason %q names no category (a)-(d)", name, reason)
		}
	}
	if n := len(exportAllowlist); n > exportAllowlistRecord {
		t.Errorf("%d allowlist entries, recorded %d: entries are only removed", n, exportAllowlistRecord)
	} else if n < exportAllowlistRecord {
		t.Errorf("%d allowlist entries, recorded %d: lower the record", n, exportAllowlistRecord)
	}
}

// checkedPackage is one type-checked package of the module.
type checkedPackage struct {
	pkg  *types.Package
	info *types.Info
}

// checkModule type-checks every non-test package of the module in dependency
// order, the standard library from source.
func checkModule(t *testing.T, fset *token.FileSet) []checkedPackage {
	t.Helper()
	type parsed struct {
		path    string
		files   []*ast.File
		imports []string
	}
	byPath := map[string]*parsed{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != "." && (d.Name()[0] == '.' || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(p, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		} else if err != nil {
			return err
		}
		pp := &parsed{path: path.Join("transparentedge", filepath.ToSlash(p))}
		if p == "." {
			pp.path = "transparentedge"
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p, name), nil, 0)
			if err != nil {
				return err
			}
			pp.files = append(pp.files, f)
		}
		pp.imports = bp.Imports
		byPath[pp.path] = pp
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	std := importer.ForCompiler(fset, "source", nil)
	done := map[string]*types.Package{}
	var out []checkedPackage
	var check func(p *parsed)
	check = func(p *parsed) {
		if done[p.path] != nil {
			return
		}
		for _, imp := range p.imports {
			if dep := byPath[imp]; dep != nil {
				check(dep)
			}
		}
		info := &types.Info{
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
			if pkg := done[path]; pkg != nil {
				return pkg, nil
			}
			return std.Import(path)
		})}
		pkg, err := conf.Check(p.path, fset, p.files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.path, err)
		}
		done[p.path] = pkg
		out = append(out, checkedPackage{pkg, info})
	}
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		check(byPath[p])
	}
	return out
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps a field or method of a generic instantiation back to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Signature().Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// satisfies reports whether t implements iface. An interface that mentions
// a type parameter (a constraint such as interface{ JSON() J }) has no
// instance to check against, so there t only needs its method names.
func satisfies(t types.Type, iface *types.Interface) bool {
	if !mentionsTypeParam(iface) {
		return types.Implements(t, iface)
	}
	ms := types.NewMethodSet(t)
	for m := range iface.Methods() {
		if ms.Lookup(m.Pkg(), m.Name()) == nil {
			return false
		}
	}
	return true
}

func mentionsTypeParam(iface *types.Interface) bool {
	for m := range iface.Methods() {
		sig := m.Signature()
		for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
			for v := range tuple.Variables() {
				if _, ok := v.Type().(*types.TypeParam); ok {
					return true
				}
			}
		}
	}
	return false
}

// markEmbedded marks the embedded fields a promoted selection goes through.
func markEmbedded(sel *types.Selection, used map[types.Object]bool) {
	typ := sel.Recv()
	idx := sel.Index()
	for _, i := range idx[:len(idx)-1] {
		if p, ok := typ.Underlying().(*types.Pointer); ok {
			typ = p.Elem()
		}
		st, ok := typ.Underlying().(*types.Struct)
		if !ok {
			return
		}
		f := st.Field(i)
		used[origin(f)] = true
		typ = f.Type()
	}
}
