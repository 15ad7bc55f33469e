// Command abpair times two revisions of this repository against each
// other on the end-to-end benchmark (benchmark/, BENCHMARK.json), in
// alternating pairs, and checks that both do exactly the same work:
//
//	go run ./cmd/abpair -a <rev> -b <rev> [-workloads w1,w2] [-pairs 10] [-seconds 6] [-seed 1]
//	make ab A=<rev> B=<rev> [WORKLOADS=w1,w2] [PAIRS=10] [SECONDS=6] [SEED=1]
//
// It extracts both revisions with git archive into a temporary
// directory, builds each tree's benchmark binary once, and runs each
// side once per workload with --trace 1: every exact work count (the
// metrics whose unit is "count": sim.events, radio.tx_frames,
// channel.*, mac.*, app.packets_sent, metrics.trace_events) and the
// fingerprint line (events, energy bits, channel statistics) must agree.
// Then, per workload, it runs N pairs with --trace 0, alternating which
// side runs first, and prints each end-to-end metric's median and
// quartiles per side, the change of the medians and how many pairs B
// won. It exits 1 when a count or the fingerprint differs or a run
// fails its own checks, after printing everything.
package main

import (
	"archive/tar"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// manifest is the part of BENCHMARK.json abpair reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

// result is the benchmark's result line, and the fingerprint line of
// its report: the event count, energy bits and channel statistics.
type result struct {
	Correct     bool              `json:"correct"`
	Failed      int               `json:"failed"`
	Metrics     map[string]metric `json:"metrics"`
	fingerprint string
}

// metric is one value of a result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// side is one revision under test.
type side struct {
	name, rev, dir, bin string
}

func main() {
	a := flag.String("a", "", "baseline revision")
	b := flag.String("b", "", "candidate revision")
	workloads := flag.String("workloads", "all", "comma-separated workloads, or all: every workload B's BENCHMARK.json declares")
	pairs := flag.Int("pairs", 10, "alternating pairs per workload")
	seconds := flag.Float64("seconds", 6, "measured seconds per run")
	seed := flag.Int64("seed", 1, "benchmark seed")
	flag.Parse()
	if *a == "" || *b == "" || *pairs < 1 || *seconds <= 0 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	ok, err := run(*a, *b, *workloads, *pairs, *seconds, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "abpair:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run extracts and builds both sides, checks their work counts and
// times them. It reports false when a count differs or a run failed.
func run(revA, revB, workloads string, pairs int, seconds float64, seed int64) (bool, error) {
	tmp, err := os.MkdirTemp("", "abpair-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)
	sides := []*side{{name: "A", rev: revA}, {name: "B", rev: revB}}
	for _, s := range sides {
		s.dir = filepath.Join(tmp, s.name)
		s.bin = filepath.Join(tmp, s.name+".bin")
		if err := extract(s.rev, s.dir); err != nil {
			return false, fmt.Errorf("%s (%s): %w", s.name, s.rev, err)
		}
		if err := build(s); err != nil {
			return false, fmt.Errorf("%s (%s): %w", s.name, s.rev, err)
		}
	}
	var m manifest
	js, err := os.ReadFile(filepath.Join(sides[1].dir, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(js, &m)
	}
	if err != nil {
		return false, fmt.Errorf("B's BENCHMARK.json: %w", err)
	}
	names := strings.Split(workloads, ",")
	if workloads == "all" {
		names = names[:0]
		for _, w := range m.Workloads {
			names = append(names, w.Name)
		}
	}
	fmt.Printf("A = %s, B = %s; seed %d, %d pairs of %g s per workload\n", revA, revB, seed, pairs, seconds)
	ok := true
	for _, w := range names {
		wok, err := workload(sides, m, w, pairs, seconds, seed)
		if err != nil {
			return false, err
		}
		ok = ok && wok
	}
	return ok, nil
}

// workload checks and times one workload on both sides.
func workload(sides []*side, m manifest, w string, pairs int, seconds float64, seed int64) (bool, error) {
	fmt.Printf("\n%s\n", w)
	ok := true
	var traced [2]result
	for j, s := range sides {
		r, err := bench(s, w, seed, seconds, 1)
		if err != nil {
			return false, err
		}
		ok = ok && r.Correct && r.Failed == 0
		traced[j] = r
	}
	diffs, counts := countDiffs(traced[0], traced[1])
	for _, d := range diffs {
		fmt.Printf("  COUNT DIFFERS %s\n", d)
	}
	if len(diffs) == 0 {
		fmt.Printf("  traced work counts identical (%d counts)\n", counts)
	}
	fa, fb := traced[0].fingerprint, traced[1].fingerprint
	if fa != fb {
		fmt.Printf("  FINGERPRINT DIFFERS\n    A %s\n    B %s\n", fa, fb)
	} else {
		fmt.Printf("  %s\n", fa)
	}
	ok = ok && len(diffs) == 0 && fa == fb

	vals := make([][2][]float64, len(m.EndToEnd)) // [metric][side][pair]
	for p := range pairs {
		order := []int{0, 1}
		if p%2 == 1 {
			order = []int{1, 0}
		}
		for _, j := range order {
			r, err := bench(sides[j], w, seed, seconds, 0)
			if err != nil {
				return false, err
			}
			ok = ok && r.Correct && r.Failed == 0
			for k, e := range m.EndToEnd {
				vals[k][j] = append(vals[k][j], r.Metrics[e.Name].Value)
			}
		}
		fmt.Fprintf(os.Stderr, "abpair: %s pair %d/%d done\n", w, p+1, pairs)
	}
	fmt.Printf("  %-18s %-32s %-32s %8s %7s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "B vs A", "B wins")
	for k, e := range m.EndToEnd {
		v := vals[k]
		sa, sb := summarize(v[0]), summarize(v[1])
		fmt.Printf("  %-18s %-32s %-32s %+7.2f%% %4d/%d\n", e.Name, sa.String(), sb.String(),
			change(sa.median, sb.median), wins(v[0], v[1], e.Better), pairs)
	}
	return ok, nil
}

// String renders a spread as "median [q1, q3]".
func (s spread) String() string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.median, s.q1, s.q3)
}

// countDiffs lists the count metrics whose values differ between a and
// b, or that only one of them reports, and how many counts there were.
func countDiffs(a, b result) ([]string, int) {
	names := map[string]bool{}
	for _, r := range []result{a, b} {
		for name, v := range r.Metrics {
			if v.Unit == "count" {
				names[name] = true
			}
		}
	}
	var diffs []string
	for name := range names {
		va, inA := a.Metrics[name]
		vb, inB := b.Metrics[name]
		if !inA || !inB || math.Float64bits(va.Value) != math.Float64bits(vb.Value) {
			diffs = append(diffs, fmt.Sprintf("%s: A %s, B %s", name, show(va.Value, inA), show(vb.Value, inB)))
		}
	}
	sort.Strings(diffs)
	return diffs, len(names)
}

// show renders a count, or "absent".
func show(v float64, present bool) string {
	if !present {
		return "absent"
	}
	return fmt.Sprintf("%.0f", v)
}

// bench runs one side's benchmark binary once and parses its result
// line. A run that fails its own checks still yields its line.
func bench(s *side, w string, seed int64, seconds float64, trace int) (result, error) {
	cmd := exec.Command(s.bin, "--workload", w, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		return result{}, fmt.Errorf("%s %s: %v\n%s", s.name, w, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return result{}, fmt.Errorf("%s %s: result line: %v", s.name, w, err)
	}
	if !r.Correct || r.Failed > 0 {
		fmt.Printf("  %s FAILED its checks (%d failed):\n%s", s.name, r.Failed, stderr.String())
	}
	for _, l := range strings.Split(stderr.String(), "\n") {
		if l = strings.TrimSpace(l); strings.HasPrefix(l, "fingerprint ") {
			r.fingerprint = l
		}
	}
	return r, nil
}

// build compiles a side's benchmark binary from its tree, offline.
func build(s *side) error {
	cmd := exec.Command("go", "build", "-o", s.bin, ".")
	cmd.Dir = filepath.Join(s.dir, "benchmark")
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=readonly", "GOPROXY=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build: %v\n%s", err, out)
	}
	return nil
}

// extract writes the tree of rev, as git archive gives it, under dir.
func extract(rev, dir string) error {
	cmd := exec.Command("git", "archive", "--format=tar", rev)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	if err := untar(out, dir); err != nil {
		_ = cmd.Process.Kill() // it may be blocked writing what untar left unread
		_ = cmd.Wait()         // the untar error is the one to report
		return err
	}
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("git archive: %v: %s", err, stderr.String())
	}
	return nil
}

// untar writes the directories, files and symlinks of the tar stream r
// under dir.
func untar(r io.Reader, dir string) error {
	tr := tar.NewReader(r)
	for {
		h, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		path := filepath.Join(dir, filepath.FromSlash(h.Name))
		if !strings.HasPrefix(path, filepath.Clean(dir)+string(os.PathSeparator)) {
			return fmt.Errorf("archive entry %q leaves the tree", h.Name)
		}
		switch h.Typeflag {
		case tar.TypeDir:
			err = os.MkdirAll(path, 0o755)
		case tar.TypeReg:
			err = writeFile(path, tr, os.FileMode(h.Mode).Perm())
		case tar.TypeSymlink:
			if err = os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
				err = os.Symlink(h.Linkname, path)
			}
		}
		if err != nil {
			return err
		}
	}
}

// writeFile copies r into a new file at path.
func writeFile(path string, r io.Reader, mode os.FileMode) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, mode)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
