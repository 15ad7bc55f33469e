package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// The call graph gives the interprocedural analyzers (determinism
// taint, hot-path allocation closure) a shared, type-resolved view of
// who calls whom across the whole module. Nodes are canonical
// *types.Func objects; edges are static call sites plus two sound
// over-approximations:
//
//   - an interface method call adds one edge per concrete method of
//     every local type that implements the interface (method-set
//     resolution), because any of them may be the dynamic callee;
//   - a reference to a function outside call position (passing m.fire
//     as a callback, storing a function in a table) adds a "ref" edge,
//     because the referenced function may be invoked later on the
//     caller's behalf.
//
// Function literals are attributed to their enclosing declaration: a
// closure built inside F is part of F's behaviour, whether F invokes it
// or schedules it. Known imprecision, documented in DESIGN.md §15:
// calls through plain func-typed values (the kernel's Handler dispatch)
// and package-level variable initializers are not traversed (nodetaint
// handles variables initialised from a sink itself).

// EdgeKind classifies how a call edge was resolved.
type EdgeKind int

const (
	// EdgeStatic is a direct call to a known function or concrete
	// method.
	EdgeStatic EdgeKind = iota
	// EdgeInterface is a call through an interface method, resolved to
	// one concrete implementation by method-set analysis.
	EdgeInterface
	// EdgeRef is a reference to a function outside call position; the
	// function may be invoked later through the captured value.
	EdgeRef
)

// Edge is one resolved call (or function reference) site.
type Edge struct {
	Caller *Node
	Callee *Node
	// Pos is the call or reference site inside the caller.
	Pos  token.Pos
	Kind EdgeKind
}

// Node is one function in the call graph.
type Node struct {
	// Fn is the canonical function object (methods included).
	Fn *types.Func
	// Pkg is the local package declaring the function, nil for external
	// (stdlib) functions, which appear as leaves.
	Pkg *Package
	// Decl is the syntax of local functions, nil for external ones.
	Decl *ast.FuncDecl
	// Out and In are the edges leaving and entering the node, in
	// source order of their sites.
	Out []*Edge
	In  []*Edge
}

// Local reports whether the node's body was available for analysis.
func (n *Node) Local() bool { return n.Decl != nil }

// Name renders the function as package-qualified text for diagnostics:
// "sim.alloc", "(*radio.Radio).Fire", "time.Now".
func (n *Node) Name() string {
	fn := n.Fn
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := sig.Recv().Type()
		return "(" + types.TypeString(recv, types.RelativeTo(fn.Pkg())) + ")." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// CallGraph is the whole-program static call graph.
type CallGraph struct {
	nodes map[*types.Func]*Node
	// funcs lists local nodes in deterministic (file position) order.
	funcs []*Node
}

// Lookup returns the node for fn, or nil when fn never appears in the
// analyzed program.
func (g *CallGraph) Lookup(fn *types.Func) *Node { return g.nodes[fn] }

// Funcs returns every local function node in deterministic order.
func (g *CallGraph) Funcs() []*Node { return g.funcs }

// node interns a function object.
func (g *CallGraph) node(fn *types.Func) *Node {
	if n, ok := g.nodes[fn]; ok {
		return n
	}
	n := &Node{Fn: fn}
	g.nodes[fn] = n
	return n
}

func (g *CallGraph) addEdge(caller, callee *Node, pos token.Pos, kind EdgeKind) {
	e := &Edge{Caller: caller, Callee: callee, Pos: pos, Kind: kind}
	caller.Out = append(caller.Out, e)
	callee.In = append(callee.In, e)
}

// BuildCallGraph resolves the static call edges of every function
// declared in pkgs.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{nodes: make(map[*types.Func]*Node)}
	impls := collectImplementations(pkgs)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := g.node(fn)
				n.Pkg = pkg
				n.Decl = fd
				g.funcs = append(g.funcs, n)
				g.walkBody(pkg, n, fd.Body, impls)
			}
		}
	}
	sort.Slice(g.funcs, func(i, j int) bool { return g.funcs[i].Decl.Pos() < g.funcs[j].Decl.Pos() })
	return g
}

// implSet maps an interface method (the canonical *types.Func declared
// on the interface) to the concrete methods that may stand behind it.
type implSet map[*types.Func][]*types.Func

// collectImplementations enumerates every named non-interface type
// declared in pkgs and records, for each interface method of each
// named interface in pkgs, which concrete local methods satisfy it.
func collectImplementations(pkgs []*Package) implSet {
	var concrete []types.Type
	var ifaces []*types.Named
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if types.IsInterface(named) {
				ifaces = append(ifaces, named)
			} else {
				concrete = append(concrete, named)
			}
		}
	}
	impls := make(implSet)
	for _, iface := range ifaces {
		it, ok := iface.Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for _, ct := range concrete {
			ptr := types.NewPointer(ct)
			var recv types.Type
			switch {
			case types.Implements(ct, it):
				recv = ct
			case types.Implements(ptr, it):
				recv = ptr
			default:
				continue
			}
			mset := types.NewMethodSet(recv)
			for i := 0; i < it.NumMethods(); i++ {
				im := it.Method(i)
				sel := mset.Lookup(im.Pkg(), im.Name())
				if sel == nil {
					continue
				}
				if cm, ok := sel.Obj().(*types.Func); ok {
					impls[im] = append(impls[im], cm)
				}
			}
		}
	}
	return impls
}

// walkBody records every call and function reference inside body
// (function literals included) as edges out of caller.
func (g *CallGraph) walkBody(pkg *Package, caller *Node, body *ast.BlockStmt, impls implSet) {
	// callPositions marks the Fun expression of each call so that the
	// identifier walk below can tell a call from a bare reference.
	callPositions := make(map[ast.Expr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callPositions[ast.Unparen(call.Fun)] = true
		fn := calleeOf(pkg, call)
		if fn == nil {
			return true
		}
		if isInterfaceMethod(fn) {
			// One edge per possible concrete callee, plus the interface
			// method itself so chains can name the declared method.
			g.addEdge(caller, g.node(fn), call.Pos(), EdgeStatic)
			for _, cm := range impls[fn] {
				g.addEdge(caller, g.node(cm), call.Pos(), EdgeInterface)
			}
			return true
		}
		g.addEdge(caller, g.node(fn), call.Pos(), EdgeStatic)
		return true
	})
	// selOf marks identifiers that are the Sel half of a selector, so
	// the identifier case below never double-counts a method reference
	// its enclosing SelectorExpr already records.
	selOf := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			selOf[sel.Sel] = true
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		var fn *types.Func
		var pos token.Pos
		switch x := n.(type) {
		case *ast.Ident:
			if selOf[x] || callPositions[ast.Expr(x)] {
				return true
			}
			if obj, ok := pkg.Info.Uses[x].(*types.Func); ok {
				fn, pos = obj.Origin(), x.Pos()
			}
		case *ast.SelectorExpr:
			if callPositions[ast.Expr(x)] {
				return true
			}
			if obj, ok := pkg.Info.Uses[x.Sel].(*types.Func); ok {
				fn, pos = obj.Origin(), x.Sel.Pos()
			}
		}
		if fn == nil {
			return true
		}
		g.addEdge(caller, g.node(fn), pos, EdgeRef)
		for _, cm := range impls[fn] {
			g.addEdge(caller, g.node(cm), pos, EdgeRef)
		}
		return true
	})
}

// calleeOf resolves the static callee of a call expression: a package
// function, a concrete method, or an interface method. Conversions,
// builtins and calls through func-typed values yield nil. A call into a
// generic function or a method of a generic type resolves to the
// declared (uninstantiated) function, whose body is the one in the
// graph.
func calleeOf(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return fn.Origin()
		}
	case *ast.SelectorExpr:
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn.Origin()
		}
	}
	return nil
}

// isInterfaceMethod reports whether fn is declared on an interface.
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// SCC is one strongly connected component of the call graph.
type SCC struct {
	// Nodes lists the component's members in discovery order.
	Nodes []*Node
	// Index is the component's position in reverse-topological order:
	// every edge leaving the component targets a component with a
	// smaller index.
	Index int
}

// Condense computes the strongly connected components of the graph
// (Tarjan, iterative) over every edge kind. Mutually recursive helpers
// collapse into one component, which is what lets taint and allocation
// facts propagate through recursion without iteration to fixpoint.
func (g *CallGraph) Condense() []*SCC {
	index := make(map[*Node]int)
	low := make(map[*Node]int)
	onStack := make(map[*Node]bool)
	var stack []*Node
	var sccs []*SCC
	next := 0

	type frame struct {
		n  *Node
		ei int
	}
	for _, root := range g.funcs {
		if _, seen := index[root]; seen {
			continue
		}
		work := []frame{{n: root}}
		for len(work) > 0 {
			f := &work[len(work)-1]
			n := f.n
			if f.ei == 0 {
				index[n] = next
				low[n] = next
				next++
				stack = append(stack, n)
				onStack[n] = true
			}
			advanced := false
			for f.ei < len(n.Out) {
				m := n.Out[f.ei].Callee
				f.ei++
				if _, seen := index[m]; !seen {
					work = append(work, frame{n: m})
					advanced = true
					break
				}
				if onStack[m] && index[m] < low[n] {
					low[n] = index[m]
				}
			}
			if advanced {
				continue
			}
			if low[n] == index[n] {
				scc := &SCC{Index: len(sccs)}
				for {
					m := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[m] = false
					scc.Nodes = append(scc.Nodes, m)
					if m == n {
						break
					}
				}
				sccs = append(sccs, scc)
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				p := work[len(work)-1].n
				if low[n] < low[p] {
					low[p] = low[n]
				}
			}
		}
	}
	return sccs
}

// ReachableFrom returns the set of nodes reachable from roots over the
// given edge kinds (all kinds when kinds is empty), roots included.
func (g *CallGraph) ReachableFrom(roots []*Node, kinds ...EdgeKind) map[*Node]bool {
	follow := edgeFilter(kinds)
	seen := make(map[*Node]bool)
	queue := append([]*Node(nil), roots...)
	for _, r := range queue {
		seen[r] = true
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			if !follow[e.Kind] || seen[e.Callee] {
				continue
			}
			seen[e.Callee] = true
			queue = append(queue, e.Callee)
		}
	}
	return seen
}

// ReachesAny returns the set of nodes from which any of sinks is
// reachable over the given edge kinds (all kinds when empty), sinks
// included: reverse reachability, the taint propagation primitive.
func (g *CallGraph) ReachesAny(sinks []*Node, kinds ...EdgeKind) map[*Node]bool {
	follow := edgeFilter(kinds)
	seen := make(map[*Node]bool)
	queue := append([]*Node(nil), sinks...)
	for _, s := range queue {
		seen[s] = true
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.In {
			if !follow[e.Kind] || seen[e.Caller] {
				continue
			}
			seen[e.Caller] = true
			queue = append(queue, e.Caller)
		}
	}
	return seen
}

// PathTo returns a shortest chain of nodes from `from` to any node in
// `to` over the given edge kinds (all when empty), both endpoints
// included, or nil when unreachable. Diagnostics use it to render the
// offending call chain.
func (g *CallGraph) PathTo(from *Node, to map[*Node]bool, kinds ...EdgeKind) []*Node {
	follow := edgeFilter(kinds)
	if to[from] {
		return []*Node{from}
	}
	parent := map[*Node]*Node{from: nil}
	queue := []*Node{from}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			if !follow[e.Kind] {
				continue
			}
			m := e.Callee
			if _, seen := parent[m]; seen {
				continue
			}
			parent[m] = n
			if to[m] {
				var path []*Node
				for at := m; at != nil; at = parent[at] {
					path = append(path, at)
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, m)
		}
	}
	return nil
}

func edgeFilter(kinds []EdgeKind) map[EdgeKind]bool {
	follow := map[EdgeKind]bool{}
	if len(kinds) == 0 {
		follow[EdgeStatic], follow[EdgeInterface], follow[EdgeRef] = true, true, true
		return follow
	}
	for _, k := range kinds {
		follow[k] = true
	}
	return follow
}
