package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// hotpathPrefix marks a function declaration as a hot-path root: every
// function statically reachable from it falls under the hotalloc
// allocation contract (DESIGN.md §15). The directive lives in the
// FuncDecl's doc comment:
//
//	//tmedbvet:hotpath
//	func (g *CSR) ShortestPathsInto(...)
const hotpathPrefix = "//tmedbvet:hotpath"

// FuncNode is one function or method declaration in the call graph.
type FuncNode struct {
	// Obj is the declaration's *types.Func object — the graph key.
	Obj types.Object
	// Decl is the syntax, with body.
	Decl *ast.FuncDecl
	// Pkg is the package the declaration lives in.
	Pkg *Package
	// Hot reports a //tmedbvet:hotpath doc-comment annotation.
	Hot bool
	// Callees are the statically resolved call targets in body order
	// (duplicates preserved). Only targets that are themselves nodes of
	// the graph (module-internal declarations) are traversable.
	Callees []types.Object
}

// Name renders the node for diagnostics: "(*CSR).ShortestPathsInto"
// for methods, "PathTo32Into" for functions.
func (n *FuncNode) Name() string {
	if n.Decl.Recv != nil && len(n.Decl.Recv.List) > 0 {
		return "(" + types.ExprString(n.Decl.Recv.List[0].Type) + ")." + n.Decl.Name.Name
	}
	return n.Decl.Name.Name
}

// CallGraph resolves static callees across the packages of one module
// pass. Dynamic dispatch (interface methods, function values) has no
// edges: reachability-based checks are deliberately bounded to what the
// type checker can prove.
type CallGraph struct {
	// Funcs maps every declared function/method object to its node.
	Funcs map[types.Object]*FuncNode
	// order preserves deterministic (package, file, position) iteration.
	order []*FuncNode
}

// BuildCallGraph indexes every function declaration in pkgs (which must
// be sorted by import path for deterministic traversal) and resolves
// each one's static callees.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{Funcs: make(map[types.Object]*FuncNode)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj := pkg.Info.Defs[fd.Name]
				if obj == nil {
					continue
				}
				node := &FuncNode{Obj: obj, Decl: fd, Pkg: pkg, Hot: isHotpathDecl(fd)}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if callee := StaticCallee(pkg.Info, call); callee != nil {
							node.Callees = append(node.Callees, callee)
						}
					}
					return true
				})
				g.Funcs[obj] = node
				g.order = append(g.order, node)
			}
		}
	}
	return g
}

// isHotpathDecl reports whether the declaration's doc comment carries
// the hotpath root annotation.
func isHotpathDecl(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, hotpathPrefix) {
			return true
		}
	}
	return false
}

// StaticCallee resolves a call expression to the *types.Func it
// statically invokes: direct calls, package-qualified calls, and
// method calls on concrete receivers. Conversions, built-ins, function
// values, and interface dispatch resolve to nil.
func StaticCallee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified: pkg.F(...)
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// Roots returns the hotpath-annotated nodes in declaration order.
func (g *CallGraph) Roots() []*FuncNode {
	var out []*FuncNode
	for _, n := range g.order {
		if n.Hot {
			out = append(out, n)
		}
	}
	return out
}

// Reached is one function reachable from a hotpath root, with enough
// of the BFS tree to render a call chain in diagnostics.
type Reached struct {
	Node *FuncNode
	// Root is the hotpath root this node was first reached from.
	Root *FuncNode
	// Via is the BFS parent (nil when Node is a root itself).
	Via *FuncNode
}

// Chain renders "root" or "root → ... → parent" for diagnostics.
func (r Reached) Chain() string {
	if r.Via == nil || r.Via == r.Root {
		return r.Root.Name()
	}
	return r.Root.Name() + " → … → " + r.Via.Name()
}

// Reach walks the graph breadth-first from roots, skipping (not
// entering, not returning) any node for which stop returns true, and
// returns the reached nodes in deterministic BFS order. A nil stop
// traverses everything.
func (g *CallGraph) Reach(roots []*FuncNode, stop func(*FuncNode) bool) []Reached {
	seen := make(map[types.Object]bool)
	var out []Reached
	var queue []Reached
	for _, r := range roots {
		if stop != nil && stop(r) {
			continue
		}
		if !seen[r.Obj] {
			seen[r.Obj] = true
			queue = append(queue, Reached{Node: r, Root: r})
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		out = append(out, cur)
		for _, callee := range cur.Node.Callees {
			next, ok := g.Funcs[callee]
			if !ok || seen[next.Obj] {
				continue
			}
			if stop != nil && stop(next) {
				continue
			}
			seen[next.Obj] = true
			queue = append(queue, Reached{Node: next, Root: cur.Root, Via: cur.Node})
		}
	}
	return out
}
