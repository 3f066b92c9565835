package transparentedge_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// exportAllowlist names the exports under internal/ that no program uses but
// that stay, each with its reason. Entries are only ever removed. A reason is
// one of: (a) a reference implementation tests compare against; (b) invariant
// introspection; (c) a control tests use to drive model code programs run;
// (d) a fig. 4 phase the paper names. exportAllowlistRecord is its size.
const exportAllowlistRecord = 19

var exportAllowlist = map[string]string{
	"container.Container.Ready":     "(b) readiness the lifecycle tests hold against the open port",
	"container.Container.ReadyAt":   "(b) the instant a container came up, which the bind-wait and control-plane tests compare",
	"core.Controller.DeleteImages":  "(d) fig. 4's optional Delete phase",
	"core.Controller.RemoveService": "(d) fig. 4's Remove phase",
	"core.FlowMemory.ServiceFlows":  "(b) the per-service index the FlowMemory model test checks against its reference",
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
	"simnet.Link.SetDown":           "(c) cuts a link, driving the timeout paths programs run",
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
	fset, pkgs := checkModule(t)

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

// settingsAllowlist names the exported fields under internal/ that no
// program writes but that stay, each with its reason, in the categories of
// exportAllowlist or (e) a setting whose package's default bench/ constructs,
// which only a change to the benchmark may edit. Entries are only ever
// removed; settingsAllowlistRecord is its size.
const settingsAllowlistRecord = 7

var settingsAllowlist = map[string]string{
	"faults.ClusterSpec.FailFirstPulls":    "(c) fails exactly the first pulls, driving the retry path programs run",
	"faults.ClusterSpec.FailFirstScaleUps": "(c) fails exactly the first scale-ups, driving the fallback ladder programs run",
	"faults.ClusterSpec.CrashFirstStarts":  "(c) crashes exactly the first starts, driving the probe-timeout path programs run",
	"faults.Spec.Clusters":                 "(c) fails one cluster alone, which the fallback-ladder tests need",
	"openflow.Config.FwdDelay":             "(e) bench/units.go builds its switches from openflow.DefaultConfig()",
	"openflow.Config.ControllerLatency":    "(e) bench/units.go builds its switches from openflow.DefaultConfig()",
	"openflow.Config.MissBehavior":         "(e) bench/units.go builds its switches from openflow.DefaultConfig()",
}

// TestSettingsHaveProgramWriters is the ratchet on settings: every exported
// struct field declared in a non-test file under internal/ is written by
// non-test code. A field only tests write holds its zero value in every run
// a program makes, and the branch it selects runs in none: delete both, or
// allowlist the field above with its reason. A write is a composite-literal
// key, a positional literal of the field's struct, an assignment, op= or
// ++/-- whose target selects the field, or taking its address. Embedded
// fields are exempt. A self-copy (x.F = y.F, {F: y.F}) writes nothing. A
// field of an exported …Config struct is a program's choice only when code
// outside its package writes it: the package's own defaults and zero-fills
// are one calibration, which belongs in a constant.
func TestSettingsHaveProgramWriters(t *testing.T) {
	fset, pkgs := checkModule(t)

	written := map[types.Object]bool{}
	outside := map[types.Object]bool{} // written from another package
	mark := func(p checkedPackage, obj types.Object) {
		obj = origin(obj)
		written[obj] = true
		if obj.Pkg() != p.pkg {
			outside[obj] = true
		}
	}
	// selects reports whether e reads field f: the value of a self-copy.
	selects := func(info *types.Info, e ast.Expr, f types.Object) bool {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		s := info.Selections[sel]
		return s != nil && s.Kind() == types.FieldVal && origin(s.Obj()) == origin(f)
	}
	// target marks every field on the selector chain a write of value goes
	// through (c.Stats.Deploys++ writes Deploys and Stats), unless the write
	// copies the field into itself.
	target := func(p checkedPackage, e, value ast.Expr) {
		for {
			sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
			if !ok {
				return
			}
			if s := p.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				if value != nil && selects(p.info, value, s.Obj()) {
					return
				}
				mark(p, s.Obj())
			}
			e, value = sel.X, nil
		}
	}
	for _, p := range pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					typ := p.info.Types[n].Type
					if ptr, ok := typ.Underlying().(*types.Pointer); ok {
						typ = ptr.Elem() // an elided &T in []*T{{...}}
					}
					st, ok := typ.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						var field types.Object = st.Field(i)
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							field, elt = p.info.Uses[kv.Key.(*ast.Ident)], kv.Value
						}
						if !selects(p.info, elt, field) {
							mark(p, field)
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						var value ast.Expr
						if len(n.Rhs) == len(n.Lhs) && n.Tok == token.ASSIGN {
							value = n.Rhs[i]
						}
						target(p, lhs, value)
					}
				case *ast.IncDecStmt:
					target(p, n.X, nil)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						target(p, n.X, nil)
					}
				}
				return true
			})
		}
	}

	var unwritten []string
	allowed := map[string]bool{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.pkg.Path(), "transparentedge/internal/") {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			set := written
			if tn.Exported() && strings.HasSuffix(name, "Config") {
				set = outside
			}
			for f := range st.Fields() {
				if !f.Exported() || f.Embedded() || set[f] {
					continue
				}
				key := path.Base(p.pkg.Path()) + "." + name + "." + f.Name()
				if _, ok := settingsAllowlist[key]; ok {
					allowed[key] = true
					continue
				}
				unwritten = append(unwritten, fset.Position(f.Pos()).String()+": "+key)
			}
		}
	}
	sort.Strings(unwritten)
	for _, u := range unwritten {
		t.Errorf("%s is a field no program writes: delete it with the branch it selects, or allowlist it with its reason", u)
	}
	for name, reason := range settingsAllowlist {
		if !allowed[name] {
			t.Errorf("allowlisted %s is gone or written by a program: remove its entry", name)
		}
		if c := reason[:min(len(reason), 4)]; c != "(a) " && c != "(b) " && c != "(c) " && c != "(d) " && c != "(e) " {
			t.Errorf("allowlisted %s: reason %q names no category (a)-(e)", name, reason)
		}
	}
	if n := len(settingsAllowlist); n > settingsAllowlistRecord {
		t.Errorf("%d allowlist entries, recorded %d: entries are only removed", n, settingsAllowlistRecord)
	} else if n < settingsAllowlistRecord {
		t.Errorf("%d allowlist entries, recorded %d: lower the record", n, settingsAllowlistRecord)
	}
}

// fieldsAllowlist names the exported fields under internal/ that no program
// reads but that stay, each with its reason, in the categories of
// settingsAllowlist. Entries are only ever removed; fieldsAllowlistRecord is
// its size.
const fieldsAllowlistRecord = 7

var fieldsAllowlist = map[string]string{
	"core.ClusterInfo.HasImages": "(d) fig. 7's state-query answer a scheduler registered through edge.RegisterScheduler receives",
	"core.ClusterInfo.Exists":    "(d) fig. 7's state-query answer a scheduler registered through edge.RegisterScheduler receives",
	"core.ClusterInfo.Endpoint":  "(d) fig. 7's state-query answer a scheduler registered through edge.RegisterScheduler receives",
	"core.State.Service":         "(d) fig. 7's state-query answer a scheduler registered through edge.RegisterScheduler receives",
	"core.State.ClientIP":        "(d) fig. 7's state-query answer a scheduler registered through edge.RegisterScheduler receives",
	"metrics.Hist.Name":          "(e) bench/units.go names its histogram through metrics.NewHist",
	"simnet.HTTPRequest.Method":  "(e) bench/units.go sets it on the request its HTTP unit sends",
}

// TestFieldsHaveProgramReaders is the ratchet on recorded state: every
// exported field of an exported struct declared in a non-test file under
// internal/ is read by non-test code. A field only tests read is bookkeeping
// a program pays for on every packet, dispatch or deployment and never looks
// at: delete it with the code that fills it, or allowlist it above with its
// reason. A read is a field selector anywhere but the target of =, op=, ++ or
// --, a composite-literal key, or the x.F of x.F = append(x.F, ...). A field
// with a json tag counts as read, since encoding/json reads it. Embedded
// fields are exempt.
func TestFieldsHaveProgramReaders(t *testing.T) {
	fset, pkgs := checkModule(t)

	read := map[types.Object]bool{}
	for _, p := range pkgs {
		// notRead holds the selectors in the positions that only write.
		notRead := map[*ast.SelectorExpr]bool{}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok == token.DEFINE {
						break
					}
					for i, lhs := range n.Lhs {
						sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
						if !ok {
							continue
						}
						notRead[sel] = true
						if len(n.Rhs) != len(n.Lhs) {
							continue
						}
						// x.F = append(x.F, ...) only grows the field.
						if call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr); ok && len(call.Args) > 0 {
							if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && p.info.Uses[id] == types.Universe.Lookup("append") {
								if arg, ok := ast.Unparen(call.Args[0]).(*ast.SelectorExpr); ok && types.ExprString(arg) == types.ExprString(sel) {
									notRead[arg] = true
								}
							}
						}
					}
				case *ast.IncDecStmt:
					if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
						notRead[sel] = true
					}
				}
				return true
			})
		}
		for sel, s := range p.info.Selections {
			if s.Kind() == types.FieldVal && !notRead[sel] {
				read[origin(s.Obj())] = true
			}
		}
	}

	var unread []string
	allowed := map[string]bool{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.pkg.Path(), "transparentedge/internal/") {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := range st.NumFields() {
				f := st.Field(i)
				if !f.Exported() || f.Embedded() || read[f] {
					continue
				}
				if tag, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok && tag != "-" {
					continue
				}
				key := path.Base(p.pkg.Path()) + "." + name + "." + f.Name()
				if _, ok := fieldsAllowlist[key]; ok {
					allowed[key] = true
					continue
				}
				unread = append(unread, fset.Position(f.Pos()).String()+": "+key)
			}
		}
	}
	sort.Strings(unread)
	for _, u := range unread {
		t.Errorf("%s is a field no program reads: delete it with the code that fills it, or allowlist it with its reason", u)
	}
	for name, reason := range fieldsAllowlist {
		if !allowed[name] {
			t.Errorf("allowlisted %s is gone or read by a program: remove its entry", name)
		}
		if c := reason[:min(len(reason), 4)]; c != "(a) " && c != "(b) " && c != "(c) " && c != "(d) " && c != "(e) " {
			t.Errorf("allowlisted %s: reason %q names no category (a)-(e)", name, reason)
		}
	}
	if n := len(fieldsAllowlist); n > fieldsAllowlistRecord {
		t.Errorf("%d allowlist entries, recorded %d: entries are only removed", n, fieldsAllowlistRecord)
	} else if n < fieldsAllowlistRecord {
		t.Errorf("%d allowlist entries, recorded %d: lower the record", n, fieldsAllowlistRecord)
	}
}

// checkedPackage is one type-checked package of the module.
type checkedPackage struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
}

// checkModule type-checks every non-test package of the module in dependency
// order, the standard library from source. The check runs once per test
// binary; the ratchets share it.
func checkModule(t *testing.T) (*token.FileSet, []checkedPackage) {
	t.Helper()
	m := loadModule()
	if m.err != nil {
		t.Fatal(m.err)
	}
	return m.fset, m.pkgs
}

var loadModule = sync.OnceValue(func() (m struct {
	fset *token.FileSet
	pkgs []checkedPackage
	err  error
}) {
	m.fset = token.NewFileSet()
	m.pkgs, m.err = typeCheckModule(m.fset)
	return m
})

func typeCheckModule(fset *token.FileSet) ([]checkedPackage, error) {
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
		return nil, err
	}
	std := importer.ForCompiler(fset, "source", nil)
	done := map[string]*types.Package{}
	var out []checkedPackage
	var check func(p *parsed) error
	check = func(p *parsed) error {
		if done[p.path] != nil {
			return nil
		}
		for _, imp := range p.imports {
			if dep := byPath[imp]; dep != nil {
				if err := check(dep); err != nil {
					return err
				}
			}
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
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
			return fmt.Errorf("type-checking %s: %v", p.path, err)
		}
		done[p.path] = pkg
		out = append(out, checkedPackage{pkg, info, p.files})
		return nil
	}
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := check(byPath[p]); err != nil {
			return nil, err
		}
	}
	return out, nil
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
