package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// cliEnv, when set in the environment, makes the test binary run as
// the shine CLI: TestMain hands it to main before any test runs, so
// every test drives the real command line with no separate build.
const cliEnv = "SHINE_CLI_UNDER_TEST"

// fixture is the generated dataset and the artifacts every test
// shares; TestMain builds it in a temporary directory.
var fixture struct {
	graph, docs, text string
	snap, cold        string // artifacts with and without mixtures
}

func TestMain(m *testing.M) {
	if os.Getenv(cliEnv) == "1" {
		main()
		os.Exit(0)
	}
	dir, err := os.MkdirTemp("", "shine-cli-test")
	if err == nil {
		err = buildFixture(dir)
	}
	code := 1
	if err != nil {
		fmt.Fprintf(os.Stderr, "building the CLI fixture: %v\n", err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// buildFixture generates a small dataset in dir and builds an artifact
// from it with and without precomputed mixtures.
func buildFixture(dir string) error {
	p := func(name string) string { return filepath.Join(dir, name) }
	f := &fixture
	f.graph, f.docs, f.text, f.snap, f.cold = p("g.hin"), p("d.json"), p("page.txt"), p("m.snap"), p("cold.snap")
	for _, args := range [][]string{
		{"gen", "-graph", f.graph, "-docs", f.docs, "-seed", "7", "-authors", "40", "-numdocs", "20"},
		{"snapshot", "build", "-graph", f.graph, "-docs", f.docs, "-out", f.snap},
		{"snapshot", "build", "-graph", f.graph, "-docs", f.docs, "-out", f.cold, "-precompute=false"},
	} {
		r, err := run(args...)
		if err == nil && r.code != 0 {
			err = fmt.Errorf("shine %s: exit %d\n%s", strings.Join(args, " "), r.code, r.stderr)
		}
		if err != nil {
			return err
		}
	}
	// The raw JSON lines of the first documents make a page with
	// several author mentions for annotate.
	data, err := os.ReadFile(f.docs)
	if err != nil {
		return err
	}
	lines := strings.SplitN(string(data), "\n", 4)
	return os.WriteFile(f.text, []byte(strings.Join(lines[:3], "\n")), 0o644)
}

// result is one CLI run.
type result struct {
	stdout, stderr string
	code           int
}

// run runs the CLI with args and no stdin. A run that outlives the
// timeout is an error, so a command that wrongly starts serving cannot
// hang the suite.
func run(args ...string) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), cliEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	if ctx.Err() != nil {
		return result{}, fmt.Errorf("shine %s: still running after the timeout", strings.Join(args, " "))
	}
	r := result{stdout: stdout.String(), stderr: stderr.String()}
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		r.code = exit.ExitCode()
	} else if err != nil {
		return result{}, fmt.Errorf("shine %s: %w", strings.Join(args, " "), err)
	}
	return r, nil
}

// runCLI runs the CLI and fails the test if it could not run or timed
// out; the exit code is the caller's to check.
func runCLI(t *testing.T, args ...string) result {
	t.Helper()
	r, err := run(args...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// mustRun runs the CLI and fails the test unless it exits 0.
func mustRun(t *testing.T, args ...string) result {
	t.Helper()
	r := runCLI(t, args...)
	if r.code != 0 {
		t.Fatalf("shine %s: exit %d\n%s", strings.Join(args, " "), r.code, r.stderr)
	}
	return r
}

// TestExitCodes pins the CLI's exit-code contract: 0 on success, 2 for
// a usage error (no command, unknown command, bad flag), 1 when a
// well-formed command fails at run time. The removed surfaces — the
// train command and every -model flag — fail as usage errors.
func TestExitCodes(t *testing.T) {
	f := fixture
	missing := filepath.Join(t.TempDir(), "missing.hin")
	cases := []struct {
		name string
		args []string
		code int
		msg  string // substring of stderr
	}{
		{"no args", nil, 2, "Commands:"},
		{"help", []string{"help"}, 0, ""},
		{"unknown command", []string{"frobnicate"}, 2, `unknown command "frobnicate"`},
		{"bad flag", []string{"link", "-no-such-flag"}, 2, "-no-such-flag"},
		{"runtime error", []string{"link", "-graph", missing, "-docs", f.docs}, 1, "missing.hin"},
		{"train removed", []string{"train", "-graph", f.graph, "-docs", f.docs}, 2, `unknown command "train"`},
		{"link -model removed", []string{"link", "-model", "m.json"}, 2, "-model"},
		{"annotate -model removed", []string{"annotate", "-model", "m.json"}, 2, "-model"},
		{"serve -model removed", []string{"serve", "-model", "m.json"}, 2, "-model"},
		{"snapshot build -model removed", []string{"snapshot", "build", "-model", "m.json"}, 2, "-model"},
		{"link -theta moved to snapshot build", []string{"link", "-theta", "0.5"}, 2, "-theta"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := runCLI(t, tc.args...)
			if r.code != tc.code {
				t.Fatalf("exit %d, want %d\nstderr: %s", r.code, tc.code, r.stderr)
			}
			if !strings.Contains(r.stderr, tc.msg) {
				t.Errorf("stderr %q does not mention %q", r.stderr, tc.msg)
			}
		})
	}
	if r := mustRun(t, "help"); !strings.Contains(r.stdout, "snapshot build") {
		t.Errorf("help does not list snapshot build:\n%s", r.stdout)
	}
}

// TestSnapshotRejectsTrainingFlags: a flag that only trains a model
// has no effect on a snapshot boot, so setting it explicitly together
// with -snapshot is an error that names the flag. Defaults do not
// count, and link keeps -docs because it links those documents.
func TestSnapshotRejectsTrainingFlags(t *testing.T) {
	f := fixture
	cases := []struct {
		name string
		args []string
		flag string // "" when the run must succeed
	}{
		{"link -graph", []string{"link", "-snapshot", f.snap, "-docs", f.docs, "-graph", "missing.hin"}, "-graph"},
		{"link -workers", []string{"link", "-snapshot", f.snap, "-docs", f.docs, "-workers", "2"}, "-workers"},
		{"annotate -docs", []string{"annotate", "-snapshot", f.snap, "-docs", f.docs, "-in", f.text}, "-docs"},
		{"annotate -graph", []string{"annotate", "-snapshot", f.snap, "-graph", f.graph, "-in", f.text}, "-graph"},
		{"serve -docs", []string{"serve", "-snapshot", f.snap, "-docs", f.docs, "-addr", "127.0.0.1:0"}, "-docs"},
		{"serve -graph", []string{"serve", "-snapshot", f.snap, "-graph", f.graph, "-addr", "127.0.0.1:0"}, "-graph"},
		{"serve -workers", []string{"serve", "-snapshot", f.snap, "-workers", "2", "-addr", "127.0.0.1:0"}, "-workers"},
		{"link -docs", []string{"link", "-snapshot", f.snap, "-docs", f.docs}, ""},
		{"annotate", []string{"annotate", "-snapshot", f.snap, "-in", f.text}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := runCLI(t, tc.args...)
			if tc.flag == "" {
				if r.code != 0 {
					t.Fatalf("exit %d, want 0\nstderr: %s", r.code, r.stderr)
				}
				return
			}
			if r.code != 1 {
				t.Fatalf("exit %d, want 1\nstderr: %s", r.code, r.stderr)
			}
			if !strings.Contains(r.stderr, tc.flag+" ") || !strings.Contains(r.stderr, "-snapshot") {
				t.Errorf("stderr %q does not name %s and -snapshot", r.stderr, tc.flag)
			}
		})
	}
}

// TestSnapshotPopularityMismatch: -popularity with -snapshot asserts
// the artifact's backend instead of silently serving another one.
func TestSnapshotPopularityMismatch(t *testing.T) {
	f := fixture
	for _, cmd := range [][]string{
		{"link", "-docs", f.docs},
		{"annotate", "-in", f.text},
		{"serve", "-addr", "127.0.0.1:0"},
	} {
		args := append(cmd, "-snapshot", f.snap, "-popularity", "hits")
		r := runCLI(t, args...)
		if r.code != 1 || !strings.Contains(r.stderr, `built with centrality backend "pagerank"`) {
			t.Errorf("%s: exit %d, stderr %q; want exit 1 naming the artifact's backend", cmd[0], r.code, r.stderr)
		}
	}
	mustRun(t, "link", "-snapshot", f.snap, "-docs", f.docs, "-popularity", "pagerank")
}

// TestLinkParity: training on -graph/-docs and loading the artifact
// snapshot build wrote from the same input link every document the
// same way, with the same accuracy.
func TestLinkParity(t *testing.T) {
	f := fixture
	trained := mustRun(t, "link", "-graph", f.graph, "-docs", f.docs).stdout
	loaded := mustRun(t, "link", "-snapshot", f.snap, "-docs", f.docs).stdout
	if trained != loaded {
		t.Errorf("link output differs between -graph/-docs and -snapshot:\n%s\nvs\n%s", trained, loaded)
	}
	if !strings.Contains(trained, "doc-00000\t") || !strings.Contains(trained, "accuracy: ") {
		t.Errorf("link printed no per-document or accuracy lines:\n%s", trained)
	}
}

// TestAnnotateParity: annotate prints the same table whether it
// trains its model or loads it from the artifact.
func TestAnnotateParity(t *testing.T) {
	f := fixture
	trained := mustRun(t, "annotate", "-graph", f.graph, "-docs", f.docs, "-in", f.text).stdout
	loaded := mustRun(t, "annotate", "-snapshot", f.snap, "-in", f.text).stdout
	if trained != loaded {
		t.Errorf("annotate output differs between -graph/-docs and -snapshot:\n%s\nvs\n%s", trained, loaded)
	}
	if !strings.HasPrefix(trained, "span") || strings.Count(trained, "\n[") == 0 {
		t.Errorf("annotate printed no annotation table:\n%s", trained)
	}
}

// TestLinkSnapshotPrecompute: -precompute applies to a model loaded
// from an artifact, so an artifact written without mixtures gets them
// before linking.
func TestLinkSnapshotPrecompute(t *testing.T) {
	f := fixture
	r := mustRun(t, "link", "-snapshot", f.cold, "-docs", f.docs, "-precompute")
	if !strings.Contains(r.stdout, "precomputed ") || strings.Contains(r.stdout, "precomputed 0 ") {
		t.Errorf("link -snapshot -precompute built no mixtures:\n%s", r.stdout)
	}
	if cold := mustRun(t, "link", "-snapshot", f.cold, "-docs", f.docs).stdout; strings.Contains(cold, "precomputed") {
		t.Errorf("link without -precompute precomputed:\n%s", cold)
	}
}

// TestSnapshotBuildDeterministic: two builds of one input write one
// artifact, as snapshot inspect's checksum shows.
func TestSnapshotBuildDeterministic(t *testing.T) {
	f := fixture
	again := filepath.Join(t.TempDir(), "again.snap")
	mustRun(t, "snapshot", "build", "-graph", f.graph, "-docs", f.docs, "-out", again)
	checksum := func(path string) string {
		var info struct{ Checksum string }
		if err := json.Unmarshal([]byte(mustRun(t, "snapshot", "inspect", "-json", path).stdout), &info); err != nil {
			t.Fatalf("decoding snapshot inspect -json: %v", err)
		}
		return info.Checksum
	}
	a, b := checksum(f.snap), checksum(again)
	if a == "" || a != b {
		t.Errorf("two builds of one input: checksums %q and %q", a, b)
	}
}

// TestSnapshotBuildModelVariants: snapshot build is where a
// non-default model is made, and the artifact carries it to link.
func TestSnapshotBuildModelVariants(t *testing.T) {
	f := fixture
	dir := t.TempDir()
	base := mustRun(t, "link", "-snapshot", f.snap, "-docs", f.docs).stdout
	for _, variant := range [][]string{{"-theta", "0.5"}, {"-uniform-pop"}, {"-no-learn"}} {
		out := filepath.Join(dir, strings.TrimPrefix(variant[0], "-")+".snap")
		args := append([]string{"snapshot", "build", "-graph", f.graph, "-docs", f.docs, "-out", out}, variant...)
		mustRun(t, args...)
		if got := mustRun(t, "link", "-snapshot", out, "-docs", f.docs).stdout; got == base {
			t.Errorf("snapshot build %s links exactly like the default model", variant[0])
		}
	}
}

// TestBenchFig3WritesCSV: -csv writes fig3's data as figure3.csv, as
// the flag's help promises.
func TestBenchFig3WritesCSV(t *testing.T) {
	dir := t.TempDir()
	mustRun(t, "bench", "-exp", "fig3", "-quick", "-csv", dir)
	data, err := os.ReadFile(filepath.Join(dir, "figure3.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != "candidate,object,type,prob" || len(lines) < 2 {
		t.Errorf("figure3.csv = %q, want the header candidate,object,type,prob and data rows", data)
	}
}
