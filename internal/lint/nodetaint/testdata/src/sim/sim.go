// Fixture: package path contains the "sim" segment, so it lies inside
// the deterministic simulation cone. Direct sink calls are nodeterm's
// (v1) territory; everything here launders nondeterminism through
// helpers in the non-cone package hlp, which only the interprocedural
// taint can see.
package sim

import "hlp"

// TwoDeep reaches time.Now through a helper chain two calls deep.
func TwoDeep() int64 {
	return hlp.Stamp() // want `call to hlp\.Stamp reaches time\.Now via hlp\.Stamp -> hlp\.inner -> time\.Now`
}

// ViaInterface reaches time.Now through an interface method: the
// static callee is hlp.Via, whose dynamic c.Now() dispatch lands on
// hlp.WallClock.Now — resolved by the call graph's method-set
// analysis.
func ViaInterface() int64 {
	return hlp.Via(hlp.WallClock{}) // want `call to hlp\.Via reaches time\.Now`
}

// ViaRecursion reaches os.Getenv through a mutually recursive helper
// pair (one strongly connected component).
func ViaRecursion() string {
	return hlp.Ping(3) // want `call to hlp\.Ping reaches os\.Getenv`
}

// ViaReference reaches the global rand through a helper that passes
// rand.Float64 around as a value instead of calling it.
func ViaReference() float64 {
	return hlp.Draw() // want `call to hlp\.Draw reaches rand\.Float64`
}

// ViaVariable reaches time.Now through a helper that calls it through
// a package variable.
func ViaVariable() int64 {
	return hlp.ViaVariable() // want `call to hlp\.ViaVariable reaches time\.Now via hlp\.ViaVariable -> hlp\.clock -> time\.Now`
}

// DirectVariable calls a non-cone sink holder itself.
func DirectVariable() int64 {
	return hlp.WallNow().UnixNano() // want `hlp\.WallNow is initialised from time\.Now`
}

// ViaTaintedVariable reaches time.Now through a helper that calls a
// package variable initialised from a tainted module function.
func ViaTaintedVariable() int64 {
	return hlp.ViaTaintedVariable() // want `call to hlp\.ViaTaintedVariable reaches time\.Now via hlp\.ViaTaintedVariable -> hlp\.stamp -> hlp\.Stamp -> hlp\.inner -> time\.Now`
}

// DirectTaintedVariable calls a non-cone holder of a tainted module
// function itself.
func DirectTaintedVariable() int64 {
	return hlp.Stamper() // want `hlp\.Stamper is initialised from hlp\.Stamp, so reading it reaches time\.Now`
}

// ViaRelay reaches time.Now through a variable initialised from
// another holder.
func ViaRelay() int64 {
	return hlp.ViaRelay() // want `call to hlp\.ViaRelay reaches time\.Now via hlp\.ViaRelay -> hlp\.relay -> hlp\.Stamper -> hlp\.Stamp -> hlp\.inner -> time\.Now`
}

// PureVariableOK calls a clean function through a variable.
func PureVariableOK() int {
	return hlp.PureVariable()
}

// EpochOK reads a variable initialised by calling time.Unix, which is
// not a sink.
func EpochOK() int64 {
	return hlp.Epoch()
}

// Clean calls a pure helper: no taint, no diagnostic.
func Clean() int {
	return hlp.Pure(21)
}

// SeededOK calls a helper that builds a properly seeded stream: the
// rand.New/rand.NewSource constructors are not sinks.
func SeededOK(seed int64) float64 {
	return hlp.Seeded(seed)
}

// Waived demonstrates the escape hatch on a taint finding.
func Waived() int64 {
	//lint:allow nodetaint fixture: demonstrating the waiver path
	return hlp.Stamp()
}
