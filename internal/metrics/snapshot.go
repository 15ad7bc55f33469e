package metrics

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/energy"
	"repro/internal/sim"
)

// StateRow is one (node, component, state) residency cell: how long the
// component sat in the power state over the measurement window and what
// that residency cost, E = I·Vdd·t.
type StateRow struct {
	Node      string   `json:"node"`
	Component string   `json:"component"`
	State     string   `json:"state"`
	Time      sim.Time `json:"timeNs"`
	EnergyMJ  float64  `json:"energyMJ"`
}

// CounterRow is one typed counter. Name is namespaced: "event.<kind>"
// for counters derived from the trace stream, "mac.*", "radio.*",
// "channel.*", "bs.*" for the component statistics.
type CounterRow struct {
	Node  string `json:"node"`
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// HistRow is one (node, metric) latency histogram snapshot. Quantiles
// are conservative upper bounds from the fixed bucket ladder.
type HistRow struct {
	Node    string   `json:"node"`
	Name    string   `json:"name"`
	Count   uint64   `json:"count"`
	Sum     sim.Time `json:"sumNs"`
	Min     sim.Time `json:"minNs"`
	Max     sim.Time `json:"maxNs"`
	P50     sim.Time `json:"p50Ns"`
	P90     sim.Time `json:"p90Ns"`
	P99     sim.Time `json:"p99Ns"`
	Buckets []uint64 `json:"buckets"`
}

// Snapshot is the plain-data observability outcome of one run (or, after
// Merge, of a whole batch): every row slice is sorted by its key, so two
// snapshots from equal configs are deep-equal regardless of worker count
// or map iteration order.
type Snapshot struct {
	States   []StateRow   `json:"states"`
	Counters []CounterRow `json:"counters"`
	Hists    []HistRow    `json:"histograms,omitempty"`
	// EventsRecorded counts trace events offered to the recorder;
	// EventsDropped is how many of those the ring limit discarded.
	EventsRecorded uint64 `json:"eventsRecorded"`
	EventsDropped  uint64 `json:"eventsDropped"`
	// KernelEvents counts discrete-event dispatches — the simulator's own
	// work metric, which progress/throughput reporting feeds from.
	KernelEvents uint64 `json:"kernelEvents"`
	// Points counts the runs merged into this snapshot (1 for a single
	// run).
	Points int `json:"points"`
}

// NodeEnergy names one node's finalized energy report for assembly.
type NodeEnergy struct {
	Node   string
	Report energy.Report
}

// Assemble builds a snapshot from a run's recorder, the finalized energy
// reports, any extra state rows (e.g. battery level residencies, which
// no energy.Report carries) and extra component counters. The recorder
// may be nil (events, counters and histograms are then empty).
func Assemble(rec *Recorder, energies []NodeEnergy, extraStates []StateRow, extra []CounterRow, kernelEvents uint64) *Snapshot {
	s := &Snapshot{
		EventsRecorded: rec.Recorded(),
		EventsDropped:  rec.Dropped(),
		KernelEvents:   kernelEvents,
		Points:         1,
	}
	for _, ne := range energies {
		for _, comp := range ne.Report.Components {
			for _, sr := range comp.States {
				s.States = append(s.States, StateRow{
					Node:      ne.Node,
					Component: comp.Name,
					State:     string(sr.State),
					Time:      sr.Time,
					EnergyMJ:  sr.EnergyJ * 1e3,
				})
			}
		}
		for _, cat := range energy.AllLossCategories() {
			if j, ok := ne.Report.Losses[cat]; ok {
				s.States = append(s.States, StateRow{
					Node:      ne.Node,
					Component: "loss",
					State:     string(cat),
					EnergyMJ:  j * 1e3,
				})
			}
		}
	}
	s.States = append(s.States, extraStates...)
	s.Counters = append(s.Counters, rec.CounterRows()...)
	s.Counters = append(s.Counters, extra...)
	s.Hists = rec.HistRows()
	s.sortRows()
	return s
}

// sortRows restores the canonical row order after assembly or merge.
func (s *Snapshot) sortRows() {
	sort.Slice(s.States, func(i, j int) bool {
		a, b := s.States[i], s.States[j]
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Component != b.Component {
			return a.Component < b.Component
		}
		return a.State < b.State
	})
	byNodeName(s.Counters, func(c CounterRow) (string, string) { return c.Node, c.Name })
	byNodeName(s.Hists, func(h HistRow) (string, string) { return h.Node, h.Name })
}

// Counter reports the value of one (node, name) counter (0 if absent).
func (s *Snapshot) Counter(node, name string) uint64 {
	for _, c := range s.Counters {
		if c.Node == node && c.Name == name {
			return c.Value
		}
	}
	return 0
}

// State returns the (node, component, state) row and whether it exists.
func (s *Snapshot) State(node, component, state string) (StateRow, bool) {
	for _, r := range s.States {
		if r.Node == node && r.Component == component && r.State == state {
			return r, true
		}
	}
	return StateRow{}, false
}

// Merge folds a batch of per-point snapshots into one aggregate: state
// rows and counters sum by key, histograms merge bucket-wise, and the
// event/kernel totals add up. Nil snapshots are skipped, so callers can
// pass a result batch with failed points directly. Merge order never
// affects the outcome (addition commutes and rows re-sort).
func Merge(snaps []*Snapshot) *Snapshot {
	out := &Snapshot{}
	stateIdx := make(map[[3]string]int)
	counterIdx := make(map[[2]string]int)
	histIdx := make(map[[2]string]int)
	for _, sn := range snaps {
		if sn == nil {
			continue
		}
		out.Points += sn.Points
		out.EventsRecorded += sn.EventsRecorded
		out.EventsDropped += sn.EventsDropped
		out.KernelEvents += sn.KernelEvents
		for _, r := range sn.States {
			k := [3]string{r.Node, r.Component, r.State}
			if i, ok := stateIdx[k]; ok {
				out.States[i].Time += r.Time
				out.States[i].EnergyMJ += r.EnergyMJ
			} else {
				stateIdx[k] = len(out.States)
				out.States = append(out.States, r)
			}
		}
		for _, c := range sn.Counters {
			k := [2]string{c.Node, c.Name}
			if i, ok := counterIdx[k]; ok {
				out.Counters[i].Value += c.Value
			} else {
				counterIdx[k] = len(out.Counters)
				out.Counters = append(out.Counters, c)
			}
		}
		for _, h := range sn.Hists {
			k := [2]string{h.Node, h.Name}
			if i, ok := histIdx[k]; ok {
				out.Hists[i] = mergeHistRows(out.Hists[i], h)
			} else {
				histIdx[k] = len(out.Hists)
				cp := h
				cp.Buckets = append([]uint64(nil), h.Buckets...)
				out.Hists = append(out.Hists, cp)
			}
		}
	}
	out.sortRows()
	return out
}

// mergeHistRows rebuilds a HistRow from two rows' buckets so the merged
// quantiles stay consistent with the merged distribution.
func mergeHistRows(a, b HistRow) HistRow {
	h := &Histogram{
		Counts: append([]uint64(nil), a.Buckets...),
		N:      a.Count, Sum: a.Sum, Min: a.Min, Max: a.Max,
	}
	// Tolerate rows built with a different (e.g. fuzzed) bucket count.
	for len(h.Counts) < len(histBounds)+1 {
		h.Counts = append(h.Counts, 0)
	}
	bh := &Histogram{
		Counts: append([]uint64(nil), b.Buckets...),
		N:      b.Count, Sum: b.Sum, Min: b.Min, Max: b.Max,
	}
	for len(bh.Counts) < len(h.Counts) {
		bh.Counts = append(bh.Counts, 0)
	}
	h.Merge(bh)
	return h.Row(a.Node, a.Name)
}

// JSON renders the snapshot as indented JSON.
func (s *Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// CSV renders the snapshot as one flat table: every row carries a record
// discriminator so states, counters and histograms share a file that
// spreadsheet tooling can pivot on.
func (s *Snapshot) CSV() string {
	var b strings.Builder
	b.WriteString("record,node,component,state_or_name,time_ms,energy_mj,count,avg_ms,p50_ms,p99_ms,max_ms\n")
	for _, r := range s.States {
		fmt.Fprintf(&b, "state,%s,%s,%s,%.3f,%.4f,,,,,\n",
			r.Node, r.Component, r.State, r.Time.Milliseconds(), r.EnergyMJ)
	}
	for _, c := range s.Counters {
		fmt.Fprintf(&b, "counter,%s,,%s,,,%d,,,,\n", c.Node, c.Name, c.Value)
	}
	for _, h := range s.Hists {
		avg := sim.Time(0)
		if h.Count > 0 {
			avg = h.Sum / sim.Time(h.Count)
		}
		fmt.Fprintf(&b, "hist,%s,,%s,,,%d,%.3f,%.3f,%.3f,%.3f\n",
			h.Node, h.Name, h.Count,
			avg.Milliseconds(), h.P50.Milliseconds(), h.P99.Milliseconds(), h.Max.Milliseconds())
	}
	return b.String()
}

// WriteFile writes the snapshot to path: the flat CSV table when the
// path ends in ".csv", indented JSON otherwise.
func (s *Snapshot) WriteFile(path string) error {
	var data []byte
	if strings.HasSuffix(path, ".csv") {
		data = []byte(s.CSV())
	} else {
		var err error
		if data, err = s.JSON(); err != nil {
			return err
		}
	}
	return os.WriteFile(path, data, 0o644)
}
