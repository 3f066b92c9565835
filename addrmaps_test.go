package transparentedge_test

import (
	"go/ast"
	"go/types"
	"slices"
	"sort"
	"testing"
)

// addrMapAllowlist names the maps keyed by an address string that stay on the
// packet and packet-in paths, each with its reason. A site is the declaration
// the map type is written in: Type.field, Type.Method or Func, after the
// package name. Entries are only ever removed.
var addrMapAllowlist = map[string]string{
	"simnet.Numbering.ids":    "the network's numbering table: the one place an address is hashed, once per address",
	"simnet.Numbering.Number": "makes the numbering table on first use",
}

// addrMapPackages are the packages on the packet and packet-in paths, where an
// address is carried by number (DESIGN.md §3).
var addrMapPackages = []string{
	"transparentedge/internal/simnet",
	"transparentedge/internal/openflow",
	"transparentedge/internal/steer",
	"transparentedge/internal/srsteer",
	"transparentedge/internal/core",
}

// TestNoAddrKeyedMaps is the ratchet on the per-packet and per-packet-in
// paths: no map in the non-test code of addrMapPackages is keyed by a
// simnet.Addr, or by a struct or array that holds one, outside the
// allowlist. Such a map hashes the address string on every probe; key it by
// the address's number (simnet.Network.Number), which packets carry, or
// index a slice by it. It also fails on an allowlist entry whose map is gone.
func TestNoAddrKeyedMaps(t *testing.T) {
	_, pkgs := checkModule(t)
	found := map[string]bool{}
	for _, p := range pkgs {
		if !slices.Contains(addrMapPackages, p.pkg.Path()) {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				for site, node := range declSites(d) {
					ast.Inspect(node, func(n ast.Node) bool {
						mt, ok := n.(*ast.MapType)
						if !ok {
							return true
						}
						if key := p.info.Types[mt.Key].Type; key != nil && holdsAddr(key) {
							found[p.pkg.Name()+"."+site] = true
						}
						return true
					})
				}
			}
		}
	}
	var sites []string
	for site := range found {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	for _, site := range sites {
		if _, ok := addrMapAllowlist[site]; !ok {
			t.Errorf("%s: a map keyed by an address string; key it by the address's number, or allowlist it with its reason", site)
		}
	}
	for site := range addrMapAllowlist {
		if !found[site] {
			t.Errorf("allowlist entry %s: no such map any more; remove the entry", site)
		}
	}
}

// declSites splits a top-level declaration into the sites a map type can be
// written in, each with the part of the syntax tree that belongs to it.
func declSites(d ast.Decl) map[string]ast.Node {
	sites := map[string]ast.Node{}
	switch d := d.(type) {
	case *ast.FuncDecl:
		name := d.Name.Name
		if d.Recv != nil && len(d.Recv.List) == 1 {
			name = recvName(d.Recv.List[0].Type) + "." + name
		}
		sites[name] = d
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				st, ok := s.Type.(*ast.StructType)
				if !ok {
					sites[s.Name.Name] = s
					continue
				}
				for _, field := range st.Fields.List {
					names := []string{typeName(field.Type)} // embedded
					if len(field.Names) > 0 {
						names = names[:0]
						for _, n := range field.Names {
							names = append(names, n.Name)
						}
					}
					for _, n := range names {
						sites[s.Name.Name+"."+n] = field.Type
					}
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					sites[n.Name] = s
				}
			}
		}
	}
	return sites
}

// recvName returns the type name of a method receiver.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return typeName(e)
		}
	}
}

func typeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.StarExpr:
		return typeName(x.X)
	}
	return "?"
}

// holdsAddr reports whether t is simnet.Addr, or a struct or array holding
// one. A value cannot hold itself, so the walk ends.
func holdsAddr(t types.Type) bool {
	if n, ok := t.(*types.Named); ok {
		if obj := n.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == "transparentedge/internal/simnet" && obj.Name() == "Addr" {
			return true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := range u.NumFields() {
			if holdsAddr(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return holdsAddr(u.Elem())
	}
	return false
}
