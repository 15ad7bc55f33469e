package metrics

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"sort"
)

// Chrome trace_event export: the timeline opens directly in
// chrome://tracing (or https://ui.perfetto.dev), one track per node,
// one instant event per recorded simulation event. The format is the
// JSON Object Format of the trace_event spec — {"traceEvents": [...]} —
// with timestamps in microseconds.

// chromeEvent is one entry of the traceEvents array.
type chromeEvent struct {
	Name  string            `json:"name"`
	Phase string            `json:"ph"`
	TS    float64           `json:"ts"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

// chromeTrace is the top-level object.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// traceTIDs assigns one Chrome thread per node: "bs" first, the rest in
// name order, so track layout is stable across runs.
func traceTIDs(events []Event) (map[string]int, []string) {
	seen := map[string]bool{}
	var names []string
	for _, e := range events {
		if !seen[e.Node] {
			seen[e.Node] = true
			names = append(names, e.Node)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		if (names[i] == "bs") != (names[j] == "bs") {
			return names[i] == "bs"
		}
		return names[i] < names[j]
	})
	tids := make(map[string]int, len(names))
	for i, n := range names {
		tids[n] = i
	}
	return tids, names
}

// WriteChromeTrace renders the event stream in Chrome trace_event JSON.
// It accepts arbitrary events (any node names, details, timestamps) and
// always emits valid JSON; encoding/json handles all string escaping.
func WriteChromeTrace(w io.Writer, events []Event) error {
	tids, names := traceTIDs(events)
	out := chromeTrace{DisplayTimeUnit: "ms",
		TraceEvents: make([]chromeEvent, 0, len(events)+len(names))}
	// Metadata: name the process and each node's track.
	for _, n := range names {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name:  "thread_name",
			Phase: "M",
			PID:   1,
			TID:   tids[n],
			Args:  map[string]string{"name": n},
		})
	}
	for _, e := range events {
		ce := chromeEvent{
			Name:  e.Kind.String(),
			Phase: "i",
			TS:    float64(e.At) / 1e3, // ns -> µs
			PID:   1,
			TID:   tids[e.Node],
			Scope: "t",
		}
		if e.Detail != "" {
			ce.Args = map[string]string{"detail": e.Detail}
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteChromeTraceFile writes the recorder's retained events to path as
// Chrome trace_event JSON.
func (r *Recorder) WriteChromeTraceFile(path string) error {
	var b bytes.Buffer
	if err := WriteChromeTrace(&b, r.Events()); err != nil {
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}
