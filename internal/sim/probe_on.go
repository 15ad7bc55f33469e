//go:build dispatchprobe

package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
)

// In a -tags dispatchprobe build the kernel counts each dispatch under
// its handler's name, the MCU each completion callback under the
// callback's, and components note their fallbacks (ProbeNote). Counting
// takes a map lookup per event, so a probed run is slower, but it
// dispatches exactly the events of an unprobed one.

var (
	probeHandlers  = map[uintptr]uint64{}
	probeCallbacks = map[uintptr]uint64{}
	probeNotes     = map[string]uint64{}
)

// ProbeHandler counts a dispatch of the kernel event handler h.
func ProbeHandler(h Handler) { probeHandlers[reflect.ValueOf(h).Pointer()]++ }

// ProbeCallback counts a run of the completion callback fn.
func ProbeCallback(fn func()) { probeCallbacks[reflect.ValueOf(fn).Pointer()]++ }

// ProbeNote counts one occurrence of what.
func ProbeNote(what string) { probeNotes[what]++ }

// ProbeCount is one row of the probe's table.
type ProbeCount struct {
	Name  string
	Count uint64
}

// ProbeTake returns the counts since the last ProbeTake, most frequent
// first, and resets them: kernel dispatches by handler name (they sum to
// the kernel's events), completion callbacks by name, and notes. Names
// are the functions' package-qualified names, with the "-fm" suffix of
// method values removed.
func ProbeTake() (handlers, callbacks, notes []ProbeCount) {
	handlers, callbacks = named(probeHandlers), named(probeCallbacks)
	notes = sorted(probeNotes)
	clear(probeHandlers)
	clear(probeCallbacks)
	clear(probeNotes)
	return handlers, callbacks, notes
}

// named sums counts by function name.
func named(counts map[uintptr]uint64) []ProbeCount {
	byName := map[string]uint64{}
	for pc, n := range counts {
		name := "?"
		if f := runtime.FuncForPC(pc); f != nil {
			name = strings.TrimSuffix(f.Name(), "-fm")
			name = name[strings.LastIndex(name, "/")+1:]
		}
		byName[name] += n
	}
	return sorted(byName)
}

// sorted lists m's counts, most frequent first, ties by name.
func sorted(m map[string]uint64) []ProbeCount {
	out := make([]ProbeCount, 0, len(m))
	for name, n := range m {
		out = append(out, ProbeCount{name, n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ProbeTable renders and resets the counts, as ProbeTake returns them,
// under a first line with their total: kernel dispatches by handler,
// each as a share of the total, the kernel's events; then completion
// callbacks, which ride the MCU's completion handler, on the same scale;
// then the notes.
func ProbeTable() string {
	handlers, callbacks, notes := ProbeTake()
	var events uint64
	for _, h := range handlers {
		events += h.Count
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  %9d  kernel events\n", events)
	for _, h := range handlers {
		fmt.Fprintf(&b, "  %9d  %5.1f%%  %s\n", h.Count, 100*float64(h.Count)/float64(events), h.Name)
	}
	if len(callbacks) > 0 {
		b.WriteString("  completion callbacks:\n")
	}
	for _, c := range callbacks {
		fmt.Fprintf(&b, "  %9d  %5.1f%%  %s\n", c.Count, 100*float64(c.Count)/float64(events), c.Name)
	}
	for _, n := range notes {
		fmt.Fprintf(&b, "  %9d  %s\n", n.Count, n.Name)
	}
	return b.String()
}
