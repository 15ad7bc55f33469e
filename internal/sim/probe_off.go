//go:build !dispatchprobe

package sim

// The dispatch probe (probe_on.go, -tags dispatchprobe) counts kernel
// dispatches by handler, MCU completions by callback, and fallbacks. In
// the default build its hooks are empty functions, which the compiler
// inlines away: dispatch costs nothing extra.

// ProbeHandler counts a dispatch of the kernel event handler h.
func ProbeHandler(h Handler) {}

// ProbeCallback counts a run of the completion callback fn.
func ProbeCallback(fn func()) {}

// ProbeNote counts one occurrence of what.
func ProbeNote(what string) {}
