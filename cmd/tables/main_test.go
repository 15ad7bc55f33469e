package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestFormatCheckedBeforeRun: -format is checked against every block
// the -table selection prints before any simulation starts. A block
// that cannot render the format fails the command with nothing on
// stdout, instead of printing text (figure4, extensions) or silently
// dropping the block (all).
func TestFormatCheckedBeforeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the tables binary")
	}
	bin := filepath.Join(t.TempDir(), "tables")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building tables: %v\n%s", err, out)
	}
	cases := []struct {
		args   []string
		stderr string // "" = must succeed
		stdout string
	}{
		{[]string{"-table", "figure4", "-format", "csv"}, "figure4 renders only as text", ""},
		{[]string{"-table", "extensions", "-format", "md"}, "extensions renders only as text", ""},
		{[]string{"-table", "all", "-format", "md"}, "all renders only as text", ""},
		{[]string{"-format", "yaml"}, `unknown format "yaml"`, ""},
		{[]string{"-table", "table9"}, `unknown block "table9"`, ""},
		{[]string{"-fast", "-table", "table1", "-format", "csv"}, "", "point,cycle_ms,"},
		{[]string{"-fast", "-table", "extensions"}, "", "EXTENSION EXPERIMENTS (60 s basis)"},
	}
	for _, c := range cases {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			cmd := exec.Command(bin, c.args...)
			var out, errb bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, &errb
			err := cmd.Run()
			if c.stderr == "" {
				if err != nil {
					t.Fatalf("exited %v\n%s", err, errb.String())
				}
				if !strings.HasPrefix(out.String(), c.stdout) {
					t.Fatalf("stdout does not start with %q:\n%s", c.stdout, out.String())
				}
				return
			}
			if err == nil {
				t.Fatalf("exited 0, want a failure\n%s", out.String())
			}
			if !strings.Contains(errb.String(), c.stderr) {
				t.Fatalf("stderr lacks %q:\n%s", c.stderr, errb.String())
			}
			if out.Len() > 0 {
				t.Fatalf("printed before failing:\n%s", out.String())
			}
		})
	}
}
