package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// tablesGolden holds the full-window text of Print("all"): Tables 1-4,
// Figure 4 and the extension experiments, as `go run ./cmd/tables`
// prints them.
var tablesGolden = filepath.Join("testdata", "tables.golden")

// TestTablesGolden pins every number cmd/tables prints, byte for byte,
// at the paper's 60 s windows and seed 1. A deliberate model change is
// refreshed with -update and explained; EXPERIMENTS.md must then follow
// (TestExperimentsDocMatchesTables). The comparison runs on amd64 only:
// on other architectures the Go compiler may fuse multiply-adds, which
// legitimately moves floating-point results in the last bit.
func TestTablesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the tables are pinned on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	var got bytes.Buffer
	if err := Print(&got, "all", "text", Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(tablesGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(tablesGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s line %d moved:\n  golden: %s\n  now:    %s", tablesGolden, i+1, w, g)
		}
	}
}

var (
	number    = regexp.MustCompile(`[+-]?\d+(?:\.\d+)?`)
	textRow   = regexp.MustCompile(`^(\S+)\s+(\d+ms \|.*)$`)
	textAvg   = regexp.MustCompile(`^avg \|err\| vs real: radio ([\d.]+)%  uC ([\d.]+)%`)
	textBar   = regexp.MustCompile(`\s([\d.]+) mJ \(radio ([\d.]+) \+ uC ([\d.]+)\)$`)
	textSave  = regexp.MustCompile(`^energy saving: (\d+)%`)
	docAvg    = regexp.MustCompile(`^Average \|error\| vs real: \*\*radio ([\d.]+)%, µC ([\d.]+)%\*\*`)
	docSave   = regexp.MustCompile(`^Energy saving .*\*\*(\d+)%\*\*`)
	tableCols = []string{"cycle", "radio real", "radio sim", "radio ours", "radio analyt",
		"µC real", "µC sim", "µC ours", "µC analyt", "dRadio%", "dMCU%"}
	barCols = []string{"radio", "µC", "total"}
)

// cells maps a row key ("Table 1 F=205Hz", "Figure 4 bar 1") to the
// row's numeric cells, normalised: label spacing dropped, − read as -.
type cells map[string][]string

// printedCells reads the rows of Tables 1-4 and Figure 4 from cmd/tables'
// text output.
func printedCells(text string) cells {
	out := cells{}
	sec, bar := "", 0
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "TABLE"):
			sec = "Table " + line[len("TABLE"):len("TABLE")+1]
		case strings.HasPrefix(line, "FIGURE 4"):
			sec = "Figure 4"
		case strings.HasPrefix(line, "EXTENSION"):
			sec = ""
		case sec == "Figure 4":
			if m := textBar.FindStringSubmatch(line); m != nil {
				bar++
				out[fmt.Sprintf("Figure 4 bar %d", bar)] = []string{m[2], m[3], m[1]}
			} else if m := textSave.FindStringSubmatch(line); m != nil {
				out["Figure 4 saving"] = m[1:]
			}
		case sec != "":
			if m := textRow.FindStringSubmatch(line); m != nil {
				out[sec+" "+m[1]] = number.FindAllString(m[2], -1)
			} else if m := textAvg.FindStringSubmatch(line); m != nil {
				out[sec+" average"] = m[1:]
			}
		}
	}
	return out
}

// documentedCells reads the same rows from EXPERIMENTS.md's markdown.
func documentedCells(md string) cells {
	out := cells{}
	sec, bar := "", 0
	for _, line := range strings.Split(strings.ReplaceAll(md, "−", "-"), "\n") {
		switch {
		case strings.HasPrefix(line, "## Table "):
			sec = "Table " + line[len("## Table "):len("## Table ")+1]
		case strings.HasPrefix(line, "## Figure 4"):
			sec = "Figure 4"
		case strings.HasPrefix(line, "## "):
			sec = ""
		case sec == "":
		case strings.HasPrefix(line, "| ") && !strings.HasPrefix(line, "| point") &&
			!strings.HasPrefix(line, "| configuration"):
			c := strings.Split(strings.Trim(line, "| "), "|")
			if sec == "Figure 4" {
				bar++
				out[fmt.Sprintf("Figure 4 bar %d", bar)] = number.FindAllString(strings.Join(c[1:4], " "), -1)
			} else {
				out[sec+" "+strings.ReplaceAll(strings.TrimSpace(c[0]), " ", "")] =
					number.FindAllString(strings.Join(c[1:], " "), -1)
			}
		default:
			if m := docAvg.FindStringSubmatch(line); m != nil {
				out[sec+" average"] = m[1:]
			} else if m := docSave.FindStringSubmatch(line); m != nil && sec == "Figure 4" {
				out["Figure 4 saving"] = m[1:]
			}
		}
	}
	return out
}

// TestExperimentsDocMatchesTables: every numeric cell of EXPERIMENTS.md's
// Table 1-4 and Figure 4 blocks, and each table's average error, equals
// what cmd/tables prints at the full windows (the pinned golden), so the
// document cannot drift from its generator.
func TestExperimentsDocMatchesTables(t *testing.T) {
	golden, err := os.ReadFile(tablesGolden)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	printed, documented := printedCells(string(golden)), documentedCells(string(doc))
	if len(printed) != 18+4+3 {
		t.Fatalf("read %d rows from %s, want 18 table rows, 4 averages and 3 Figure 4 rows", len(printed), tablesGolden)
	}
	for key, want := range printed {
		got, ok := documented[key]
		switch {
		case !ok:
			t.Errorf("EXPERIMENTS.md has no %s row", key)
		case len(got) != len(want):
			t.Errorf("EXPERIMENTS.md %s has %d numeric cells, cmd/tables prints %d", key, len(got), len(want))
		default:
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("EXPERIMENTS.md %s, %s: the document says %s, cmd/tables prints %s",
						key, colName(key, i), got[i], want[i])
				}
			}
		}
	}
	for key := range documented {
		if _, ok := printed[key]; !ok {
			t.Errorf("EXPERIMENTS.md row %s is not in cmd/tables' output", key)
		}
	}
}

// colName names cell i of the row key for a mismatch report.
func colName(key string, i int) string {
	switch {
	case strings.HasSuffix(key, "average"):
		return []string{"radio", "µC"}[i]
	case strings.HasPrefix(key, "Figure 4 bar"):
		return barCols[i]
	case strings.HasPrefix(key, "Figure 4"):
		return "saving"
	}
	return tableCols[i]
}
