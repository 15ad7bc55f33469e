package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/paperdata"
	"repro/internal/platform"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenTolerance is the maximum relative energy drift the regression
// suite accepts: 0.1%. Energies are deterministic functions of
// (Config, Seed), so any larger delta means the model changed — either
// deliberately (rerun with -update and review the diff) or by accident
// (the suite just caught a regression).
const goldenTolerance = 0.1 / 100

// goldenNode locks one node's component energies over the paper's 60 s
// window.
type goldenNode struct {
	Name    string  `json:"name"`
	RadioMJ float64 `json:"radioMJ"`
	MCUMJ   float64 `json:"mcuMJ"`
	ASICMJ  float64 `json:"asicMJ"`
}

// goldenEnergies is one locked table-row outcome.
type goldenEnergies struct {
	Table string       `json:"table"`
	Label string       `json:"label"`
	Nodes []goldenNode `json:"nodes"`
}

// goldenCases covers both applications crossed with both TDMA variants,
// each at a published 5-node sweep point of the paper's §5 evaluation.
var goldenCases = []struct {
	file  string
	table string
	row   int // index into the table's rows
}{
	{"table1_f205.json", "table1", 0}, // ECG streaming, static TDMA, F=205 Hz
	{"table2_n5.json", "table2", 4},   // ECG streaming, dynamic TDMA, n=5
	{"table3_30ms.json", "table3", 0}, // Rpeak, static TDMA, 30 ms cycle
	{"table4_n5.json", "table4", 4},   // Rpeak, dynamic TDMA, n=5
}

// runGolden executes one golden case at the paper's full 60 s window and
// extracts the per-node energies. A non-nil profile overrides the
// platform constants (the perturbation test uses this).
func runGolden(t *testing.T, table string, row int, profile *platform.Profile) goldenEnergies {
	t.Helper()
	spec, err := specFor(table)
	if err != nil {
		t.Fatal(err)
	}
	r := spec.data.Rows[row]
	cfg := rowConfig(spec, r, Options{})
	cfg.Profile = profile
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatalf("%s %s: %v", table, r.Label, err)
	}
	if !res.JoinedAll {
		t.Fatalf("%s %s: join incomplete", table, r.Label)
	}
	g := goldenEnergies{Table: table, Label: r.Label}
	for _, n := range res.Nodes {
		g.Nodes = append(g.Nodes, goldenNode{
			Name:    n.Name,
			RadioMJ: n.RadioMJ(),
			MCUMJ:   n.MCUMJ(),
			ASICMJ:  n.ASICMJ(),
		})
	}
	return g
}

// diffGolden lists every energy field whose relative drift from the
// locked value exceeds the tolerance.
func diffGolden(got, want goldenEnergies) []string {
	var diffs []string
	check := func(node, field string, g, w float64) {
		if w == 0 {
			if g != 0 {
				diffs = append(diffs, fmt.Sprintf("%s %s: got %.6f, golden 0", node, field, g))
			}
			return
		}
		if rel := math.Abs(g-w) / math.Abs(w); rel > goldenTolerance {
			diffs = append(diffs, fmt.Sprintf("%s %s: got %.6f mJ, golden %.6f mJ (drift %.3f%%)",
				node, field, g, w, rel*100))
		}
	}
	if len(got.Nodes) != len(want.Nodes) {
		return []string{fmt.Sprintf("node count: got %d, golden %d", len(got.Nodes), len(want.Nodes))}
	}
	for i, w := range want.Nodes {
		g := got.Nodes[i]
		if g.Name != w.Name {
			diffs = append(diffs, fmt.Sprintf("node %d: got %q, golden %q", i, g.Name, w.Name))
			continue
		}
		check(w.Name, "radio", g.RadioMJ, w.RadioMJ)
		check(w.Name, "mcu", g.MCUMJ, w.MCUMJ)
		check(w.Name, "asic", g.ASICMJ, w.ASICMJ)
	}
	return diffs
}

// TestGoldenEnergies locks the paper-table energy outcomes: every
// component energy of every node must stay within 0.1% of the committed
// reference. Run with -update after a deliberate model change.
func TestGoldenEnergies(t *testing.T) {
	if testing.Short() {
		t.Skip("60 s windows; skipped in -short mode")
	}
	for _, tc := range goldenCases {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			t.Parallel()
			got := runGolden(t, tc.table, tc.row, nil)
			path := filepath.Join("testdata", "golden", tc.file)
			if *update {
				data, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create the golden files)", err)
			}
			var want goldenEnergies
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}
			for _, d := range diffGolden(got, want) {
				t.Error(d)
			}
		})
	}
}

// TestGoldenTripsOnPerturbation proves the suite actually guards the
// energy model: a 0.5% bump of the radio's RX current — well under the
// errors the paper reports, far over the 0.1% gate — must trip the
// comparison.
func TestGoldenTripsOnPerturbation(t *testing.T) {
	if testing.Short() {
		t.Skip("60 s windows; skipped in -short mode")
	}
	path := filepath.Join("testdata", "golden", "table3_30ms.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden files)", err)
	}
	var want goldenEnergies
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	prof := platform.IMEC()
	prof.Radio.RxA *= 1.005
	got := runGolden(t, "table3", 0, &prof)
	if diffs := diffGolden(got, want); len(diffs) == 0 {
		t.Fatalf("0.5%% RxA perturbation produced no drift over %.1f%%: the golden gate is not sensitive to the platform constants",
			goldenTolerance*100)
	}
}

// TestGoldenWindow pins the golden runs to the paper's measurement
// window, so a change of the default cannot silently re-scope what the
// suite locks.
func TestGoldenWindow(t *testing.T) {
	if w := (Options{}).window(); w != paperdata.Window {
		t.Fatalf("default window = %v, want the paper's %v", w, paperdata.Window)
	}
}
