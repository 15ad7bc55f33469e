// Fixture: a utility package outside the simulation cone. Nothing in
// here is flagged directly (non-cone code may read the wall clock);
// the diagnostics appear at the cone call sites in the sim fixture.
package hlp

import (
	"math/rand"
	"os"
	"time"
)

// Stamp launders time.Now behind one more hop.
func Stamp() int64 { return inner() }

func inner() int64 { return time.Now().UnixNano() }

// Clock is dispatched dynamically; WallClock is its only local
// implementation.
type Clock interface {
	Now() int64
}

// WallClock reads the wall clock.
type WallClock struct{}

// Now implements Clock on the banned entry point.
func (WallClock) Now() int64 { return time.Now().UnixNano() }

// Via launders the sink behind an interface method call.
func Via(c Clock) int64 { return c.Now() }

// Ping and pong are mutually recursive; the sink sits in pong.
func Ping(n int) string {
	if n <= 0 {
		return ""
	}
	return pong(n - 1)
}

func pong(n int) string {
	if n <= 0 {
		return os.Getenv("BAN_FIXTURE")
	}
	return Ping(n - 1)
}

// Draw passes the banned global draw around as a value.
func Draw() float64 {
	f := rand.Float64
	return apply(f)
}

func apply(f func() float64) float64 { return f() }

// clock holds the wall clock in a package variable: the initializer
// belongs to no function, and a call through the variable has no
// call-graph edge.
var clock = time.Now

// ViaVariable reads the wall clock through the package variable.
func ViaVariable() int64 { return clock().UnixNano() }

// WallNow exports a sink holder for cone code to call directly.
var WallNow = time.Now

// epoch is initialised from a call, not a function value; reading it
// is a constant, so it holds no sink.
var epoch = time.Unix(0, 0)

// Epoch reads a constant instant.
func Epoch() int64 { return epoch.UnixNano() }

// Pure is taint-free.
func Pure(x int) int { return x * 2 }

// Seeded builds an explicit seeded stream: the constructors are
// allowed, so no taint flows to callers.
func Seeded(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return r.Float64()
}

// stamp holds a tainted module function, not a sink: the taint reaches
// the variable only through Stamp's own call chain.
var stamp = Stamp

// ViaTaintedVariable reads the wall clock through stamp.
func ViaTaintedVariable() int64 { return stamp() }

// Stamper exports a holder of a tainted module function.
var Stamper = Stamp

// relay holds another holder.
var relay = Stamper

// ViaRelay reads the wall clock through two variables.
func ViaRelay() int64 { return relay() }

// pure holds a taint-free module function.
var pure = Pure

// PureVariable calls a clean function through a variable.
func PureVariable() int { return pure(1) }
