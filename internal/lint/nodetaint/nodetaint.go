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
// outside the cone is reported at the read. The same holds for a
// variable initialised from a tainted module function or from another
// such variable (var clock = hlp.Stamp); holders and taint are grown
// together until neither changes.
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
	// Holders make their readers targets, and a new target can taint
	// the function another holder is initialised from: grow both until
	// neither changes.
	t := &taint{sinkInfo: sinkInfo, holders: make(map[*types.Var]holder)}
	var tainted map[*analysis.Node]bool
	for {
		t.reads = holderReads(cg, t.holders)
		targets := sinks
		for _, fnode := range cg.Funcs() {
			if len(t.reads[fnode]) > 0 {
				targets = append(targets, fnode)
			}
		}
		t.targets = make(map[*analysis.Node]bool, len(targets))
		for _, n := range targets {
			t.targets[n] = true
		}
		tainted = cg.ReachesAny(targets)
		if !t.addHolders(cg, pass.Prog.All(), tainted) {
			break
		}
	}

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
		for _, r := range t.reads[fnode] {
			if !nodeterm.InCone(r.v.Pkg().Path()) {
				h := t.holders[r.v]
				from, _, _ := strings.Cut(h.chain, " -> ")
				pass.Reportf(r.pos, "%s is initialised from %s, so reading it reaches %s outside the call graph; ambient nondeterminism must not be reachable from the simulation cone — %s",
					varName(r.v), from, h.sink.Name, hintOf(h.sink))
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
			chain, sink := t.describe(cg.PathTo(callee, t.targets))
			pass.Reportf(e.Pos, "call to %s reaches %s via %s; ambient nondeterminism must not be reachable from the simulation cone — %s",
				callee.Name(), sink.Name, chain, hintOf(sink))
		}
	}
	return nil
}

// holder is a package variable that reaches sink once called; chain
// renders the path from what its initializer references (the sink, a
// tainted module function or another holder) to the sink.
type holder struct {
	sink  nodeterm.Sink
	chain string
}

// taint is the propagation state: the sinks, the holders, their reads
// and the nodes taint flows back from (the sinks and the readers).
type taint struct {
	sinkInfo map[*analysis.Node]nodeterm.Sink
	holders  map[*types.Var]holder
	reads    map[*analysis.Node][]holderRead
	targets  map[*analysis.Node]bool
}

// describe renders a call path ending at a target as a chain, with the
// sink it reaches; a path ending at a holder's reader continues through
// the holder.
func (t *taint) describe(path []*analysis.Node) (string, nodeterm.Sink) {
	last := path[len(path)-1]
	chain := renderChain(path, t.sinkInfo)
	if sink, ok := t.sinkInfo[last]; ok {
		return chain, sink
	}
	v := t.reads[last][0].v
	return chain + " -> " + varName(v) + " -> " + t.holders[v].chain, t.holders[v].sink
}

// addHolders makes a holder of every package variable whose initializer
// first references a sink, a tainted module function or a holder, and
// reports whether it found a new one.
func (t *taint) addHolders(cg *analysis.CallGraph, pkgs []*analysis.Package, tainted map[*analysis.Node]bool) bool {
	added := false
	for _, pkg := range pkgs {
		for _, init := range pkg.Info.InitOrder {
			var h holder
			ast.Inspect(init.Rhs, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || h.chain != "" {
					return h.chain == ""
				}
				switch obj := pkg.Info.Uses[id].(type) {
				case *types.Func:
					if sink, ok := nodeterm.ClassifySink(obj); ok {
						h = holder{sink, sink.Name}
					} else if fn := cg.Lookup(obj); fn != nil && fn.Local() && tainted[fn] {
						chain, sink := t.describe(cg.PathTo(fn, t.targets))
						h = holder{sink, chain}
					}
				case *types.Var:
					if held, ok := t.holders[obj]; ok {
						h = holder{held.sink, varName(obj) + " -> " + held.chain}
					}
				}
				return h.chain == ""
			})
			for _, v := range init.Lhs {
				if _, known := t.holders[v]; h.chain != "" && !known {
					t.holders[v] = h
					added = true
				}
			}
		}
	}
	return added
}

// holderRead is one read of a sink holder inside a function body.
type holderRead struct {
	v   *types.Var
	pos token.Pos
}

// holderReads lists, per local function, its reads of sink holders in
// source order.
func holderReads(cg *analysis.CallGraph, holders map[*types.Var]holder) map[*analysis.Node][]holderRead {
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
