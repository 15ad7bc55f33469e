package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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
// (TestExperimentsDoc -update). The comparison runs on amd64 only: on
// other architectures the Go compiler may fuse multiply-adds, which
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
	reportMovedLines(t, tablesGolden, string(want), got.String())
}

// reportMovedLines fails t with every line of got that differs from the
// same line of want, the committed bytes of file.
func reportMovedLines(t *testing.T, file, want, got string) {
	t.Helper()
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s line %d moved:\n  committed: %s\n  generated: %s", file, i+1, w, g)
		}
	}
}

// experimentsDoc is the document whose generated blocks
// TestExperimentsDoc checks.
var experimentsDoc = filepath.Join("..", "..", "EXPERIMENTS.md")

// docBlocks names the generated blocks of EXPERIMENTS.md in document
// order. Each sits between `<!-- generated: <name> -->` and
// `<!-- end -->` lines.
var docBlocks = []string{"table1", "table2", "table3", "table4", "figure4", "extensions", "maccompare"}

// generateDocBlock returns the bytes of one generated block: a table as
// `go run ./cmd/tables -table <id> -format md` prints it, Figure 4 and
// the extension experiments as fenced `-table <block>` text, and the
// MAC comparison as the fenced CSV that cmd/sweep's
// TestMacCompareGolden pins to its generator.
func generateDocBlock(name string) (string, error) {
	var b strings.Builder
	switch {
	case slices.Contains(TableIDs(), name):
		err := Print(&b, name, "md", Options{Seed: 1})
		return b.String(), err
	case name == "figure4" || name == "extensions":
		err := Print(&b, name, "text", Options{Seed: 1})
		return "```\n" + b.String() + "```\n", err
	case name == "maccompare":
		csv, err := os.ReadFile(filepath.Join("..", "..", "cmd", "sweep", "testdata", "maccompare.golden"))
		return "```csv\n" + string(csv) + "```\n", err
	}
	return "", fmt.Errorf("EXPERIMENTS.md names block %q, which has no generator", name)
}

// TestExperimentsDoc regenerates every generated block of EXPERIMENTS.md
// (Tables 1-4, Figure 4, the extension experiments and the MAC
// comparison) and compares it with the document byte for byte, so no
// published number can drift from its generator. -update rewrites the
// blocks in place and leaves the hand-written prose around them alone.
// Like TestTablesGolden it runs on amd64 only.
func TestExperimentsDoc(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the tables are pinned on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	doc, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	var names []string
	rest := string(doc)
	for {
		before, after, ok := strings.Cut(rest, "\n<!-- generated: ")
		out.WriteString(before)
		if !ok {
			break
		}
		name, after, _ := strings.Cut(after, " -->\n")
		body, after, ok := strings.Cut(after, "<!-- end -->")
		if !ok {
			t.Fatalf("EXPERIMENTS.md block %q has no <!-- end --> line", name)
		}
		want, err := generateDocBlock(name)
		if err != nil {
			t.Fatal(err)
		}
		if !*update {
			reportMovedLines(t, "EXPERIMENTS.md block "+name, body, want)
		}
		fmt.Fprintf(&out, "\n<!-- generated: %s -->\n%s<!-- end -->", name, want)
		names = append(names, name)
		rest = after
	}
	if !slices.Equal(names, docBlocks) {
		t.Fatalf("EXPERIMENTS.md holds generated blocks %q, want %q", names, docBlocks)
	}
	if *update {
		if err := os.WriteFile(experimentsDoc, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
