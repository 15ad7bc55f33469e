// Package nodetaint is the interprocedural half of the determinism
// gate. The syntactic nodeterm analyzer flags direct calls to the
// banned ambient-nondeterminism entry points (wall clock, global
// math/rand, environment) inside the simulation cone; this analyzer
// closes the laundering gap: a cone package calling an innocent-looking
// helper outside the cone that itself — possibly several calls deep,
// possibly through an interface method — reaches one of the banned
// sinks. Taint propagates backwards from the sinks over the program
// call graph (static edges, method-set-resolved interface edges, and
// function references passed as values), and every cone call site whose
// callee is tainted is reported with the full offending call chain.
//
// Findings inside the cone are nodeterm's job and are not re-reported
// here: a tainted callee *inside* the cone already carries a direct
// diagnostic at its own sink call.
//
// A package-level variable initialised from a sink (var clock =
// time.Now, read as clock()) hides the sink from the call graph: the
// initializer belongs to no function and a call through the variable
// has no edge. Every function that reads such a variable therefore
// counts as calling the sink, and a cone function reading one declared
// outside the cone is reported at the read.
package nodetaint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/nodeterm"
)

var Analyzer = &analysis.Analyzer{
	Name: "nodetaint",
	Doc: "forbid cone call sites whose transitive callees outside the cone reach wall-clock time, " +
		"global math/rand or the environment; reports the full call chain to the sink",
	RunProgram: run,
}

func run(pass *analysis.ProgramPass) error {
	cg := pass.Prog.CallGraph()

	// The sinks are external leaves of the call graph: the banned
	// stdlib entry points that some module function calls directly.
	sinkInfo := make(map[*analysis.Node]nodeterm.Sink)
	var sinks []*analysis.Node
	for _, fnode := range cg.Funcs() {
		for _, e := range fnode.Out {
			callee := e.Callee
			if _, seen := sinkInfo[callee]; seen || callee.Local() {
				continue
			}
			if sink, banned := nodeterm.ClassifySink(callee.Fn); banned {
				sinkInfo[callee] = sink
				sinks = append(sinks, callee)
			}
		}
	}
	holders := sinkHolders(pass.Prog.All())
	reads := holderReads(cg, holders)
	targets := sinks
	for _, fnode := range cg.Funcs() {
		if len(reads[fnode]) > 0 {
			targets = append(targets, fnode)
		}
	}
	if len(targets) == 0 {
		return nil
	}
	tainted := cg.ReachesAny(targets)

	// Report every call from a cone package to a tainted module
	// function outside the cone — once per call site.
	selected := make(map[*analysis.Package]bool)
	for _, pkg := range pass.Prog.Packages {
		selected[pkg] = true
	}
	for _, fnode := range cg.Funcs() {
		if !selected[fnode.Pkg] || !nodeterm.InCone(fnode.Pkg.Path) {
			continue
		}
		for _, r := range reads[fnode] {
			if !nodeterm.InCone(r.v.Pkg().Path()) {
				sink := holders[r.v]
				pass.Reportf(r.pos, "%s is initialised from %s, so reading it reaches %s outside the call graph; ambient nondeterminism must not be reachable from the simulation cone — %s",
					varName(r.v), sink.Name, sink.Name, hintOf(sink))
			}
		}
		reported := make(map[int]bool)
		for _, e := range fnode.Out {
			callee := e.Callee
			if !callee.Local() || nodeterm.InCone(callee.Pkg.Path) {
				continue
			}
			if !tainted[callee] || reported[int(e.Pos)] {
				continue
			}
			reported[int(e.Pos)] = true
			path := cg.PathTo(callee, asSet(targets))
			chain := renderChain(path, sinkInfo)
			sink, ok := sinkInfo[path[len(path)-1]]
			if !ok { // the chain ends reading a sink holder
				v := reads[path[len(path)-1]][0].v
				sink = holders[v]
				chain += " -> " + varName(v) + " -> " + sink.Name
			}
			pass.Reportf(e.Pos, "call to %s reaches %s via %s; ambient nondeterminism must not be reachable from the simulation cone — %s",
				callee.Name(), sink.Name, chain, hintOf(sink))
		}
	}
	return nil
}

// sinkHolders finds the package-level variables whose initializer
// references a sink, with the first sink each references.
func sinkHolders(pkgs []*analysis.Package) map[*types.Var]nodeterm.Sink {
	holders := make(map[*types.Var]nodeterm.Sink)
	for _, pkg := range pkgs {
		for _, init := range pkg.Info.InitOrder {
			if sink, found := firstSink(pkg, init.Rhs); found {
				for _, v := range init.Lhs {
					holders[v] = sink
				}
			}
		}
	}
	return holders
}

// firstSink reports the first sink function expr references.
func firstSink(pkg *analysis.Package, expr ast.Expr) (sink nodeterm.Sink, found bool) {
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !found {
			if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
				sink, found = nodeterm.ClassifySink(fn)
			}
		}
		return !found
	})
	return sink, found
}

// holderRead is one read of a sink holder inside a function body.
type holderRead struct {
	v   *types.Var
	pos token.Pos
}

// holderReads lists, per local function, its reads of sink holders in
// source order.
func holderReads(cg *analysis.CallGraph, holders map[*types.Var]nodeterm.Sink) map[*analysis.Node][]holderRead {
	reads := make(map[*analysis.Node][]holderRead)
	if len(holders) == 0 {
		return reads
	}
	for _, fnode := range cg.Funcs() {
		ast.Inspect(fnode.Decl.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v, ok := fnode.Pkg.Info.Uses[id].(*types.Var); ok {
					if _, held := holders[v]; held {
						reads[fnode] = append(reads[fnode], holderRead{v: v, pos: id.Pos()})
					}
				}
			}
			return true
		})
	}
	return reads
}

// varName renders a package variable as "pkg.name".
func varName(v *types.Var) string { return v.Pkg().Name() + "." + v.Name() }

func asSet(nodes []*analysis.Node) map[*analysis.Node]bool {
	set := make(map[*analysis.Node]bool, len(nodes))
	for _, n := range nodes {
		set[n] = true
	}
	return set
}

// renderChain formats a call path as "hlp.Stamp -> hlp.inner ->
// time.Now" for the diagnostic.
func renderChain(path []*analysis.Node, sinkInfo map[*analysis.Node]nodeterm.Sink) string {
	parts := make([]string, 0, len(path))
	for _, n := range path {
		if sink, ok := sinkInfo[n]; ok {
			parts = append(parts, sink.Name)
			continue
		}
		parts = append(parts, n.Name())
	}
	return strings.Join(parts, " -> ")
}

// hintOf extracts the remediation half of the sink's v1 message (the
// text after the first semicolon), falling back to the whole message.
func hintOf(sink nodeterm.Sink) string {
	if _, hint, ok := strings.Cut(sink.Message, "; "); ok {
		return hint
	}
	return sink.Message
}
