// Package eventgen enforces the fault-safety invariant PR 2
// established: a callback scheduled on the simulation kernel that
// captures a crash-aware component (a struct carrying a `gen`
// generation counter, bumped on every crash/reboot) must consult that
// counter before touching the component, because events armed before a
// crash survive in the queue and would otherwise resurrect pre-crash
// state. The convention is
//
//	gen := m.gen
//	k.ScheduleAt(at, func(*sim.Kernel) {
//		if m.gen != gen {
//			return // armed before a crash
//		}
//		...
//	})
//
// The analyzer flags a func literal passed to Kernel.Schedule /
// Kernel.ScheduleAt / Kernel.ScheduleArgAt / sim.NewTimer that captures
// a pointer to a struct with a `gen` field while its body never mentions
// a generation.
// Components without a `gen` field have no crash lifecycle and are not
// constrained.
package eventgen

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "eventgen",
	Doc: "kernel callbacks capturing a crash-aware component (struct with a gen counter) " +
		"must recheck the generation, or they resurrect pre-crash state after a reboot",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !schedulingCall(pass, call) {
				return true
			}
			for _, arg := range call.Args {
				lit, ok := arg.(*ast.FuncLit)
				if !ok {
					continue
				}
				checkCallback(pass, lit)
			}
			return true
		})
	}
	return nil
}

// schedulingCall reports whether call arms a future kernel event:
// (*sim.Kernel).Schedule / ScheduleAt / ScheduleArgAt, or sim.NewTimer.
func schedulingCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || !simPackage(fn.Pkg().Path()) {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if sig.Recv() == nil {
		return fn.Name() == "NewTimer"
	}
	if n := fn.Name(); n != "Schedule" && n != "ScheduleAt" && n != "ScheduleArgAt" {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	return ok && named.Obj().Name() == "Kernel"
}

func simPackage(path string) bool {
	return path == "sim" || strings.HasSuffix(path, "/sim")
}

// checkCallback flags lit when it captures a crash-aware component but
// never consults a generation.
func checkCallback(pass *analysis.Pass, lit *ast.FuncLit) {
	captured := crashAwareCaptures(pass, lit)
	if len(captured) == 0 {
		return
	}
	if mentionsGen(lit) {
		return
	}
	pass.Reportf(lit.Pos(), "scheduled callback captures crash-aware %s but never checks its generation; capture gen := %s.gen outside and return when it changed",
		strings.Join(captured, ", "), captured[0])
}

// crashAwareCaptures lists variables used inside lit that are declared
// outside it and point to a struct with a `gen` field.
func crashAwareCaptures(pass *analysis.Pass, lit *ast.FuncLit) []string {
	seen := map[string]bool{}
	var out []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // declared inside the literal
		}
		if !hasGenField(v.Type()) || seen[v.Name()] {
			return true
		}
		seen[v.Name()] = true
		out = append(out, v.Name())
		return true
	})
	return out
}

// hasGenField reports whether t is (a pointer to) a struct with an
// unexported field named gen — the crash-generation convention.
func hasGenField(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == "gen" {
			return true
		}
	}
	return false
}

// mentionsGen reports whether the literal's body references any
// generation-named identifier or selector (gen, m.gen, generation, ...).
func mentionsGen(lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			lower := strings.ToLower(id.Name)
			if lower == "gen" || strings.HasPrefix(lower, "generation") {
				found = true
			}
		}
		return !found
	})
	return found
}
