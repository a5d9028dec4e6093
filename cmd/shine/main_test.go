package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"shine/internal/pagerank"
	"shine/internal/synth"
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
		r, err := run(nil, args...)
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

// command is the CLI with args: the test binary re-executed as shine,
// killed if ctx ends first.
//
// A race-built child sleeps a second at exit by default (the race
// runtime's atexit_sleep_ms=1000), a minute over this package's CLI
// runs, so the child's GORACE turns the sleep off. The sleep only
// gives other goroutines time to report a race; a race the child
// detects still makes it exit 66, which every caller's exit-code
// check catches. Without -race, GORACE is ignored.
func command(ctx context.Context, args ...string) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	gorace := strings.TrimSpace(os.Getenv("GORACE") + " atexit_sleep_ms=0")
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), cliEnv+"=1", "GORACE="+gorace)
	return cmd, nil
}

// run runs the CLI with args, reading stdin from in (nil: no stdin). A
// run that outlives the timeout is an error, so a command that wrongly
// starts serving cannot hang the suite.
func run(in io.Reader, args ...string) (result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd, err := command(ctx, args...)
	if err != nil {
		return result{}, err
	}
	var stdout, stderr bytes.Buffer
	cmd.Stdin, cmd.Stdout, cmd.Stderr = in, &stdout, &stderr
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
	r, err := run(nil, args...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// mustRun runs the CLI and fails the test unless it exits 0.
func mustRun(t *testing.T, args ...string) result {
	t.Helper()
	return mustRunIn(t, nil, args...)
}

// mustRunIn is mustRun with stdin read from in.
func mustRunIn(t *testing.T, in io.Reader, args ...string) result {
	t.Helper()
	r, err := run(in, args...)
	if err != nil {
		t.Fatal(err)
	}
	if r.code != 0 {
		t.Fatalf("shine %s: exit %d\n%s", strings.Join(args, " "), r.code, r.stderr)
	}
	return r
}

// TestExitCodes pins the CLI's exit-code contract: 0 on success, 2 for
// a usage error (no command, unknown command, bad flag), 1 when a
// well-formed command fails at run time. The removed surfaces — the
// train and loadgen commands and every -model flag — fail as usage
// errors.
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
		{"loadgen removed", []string{"loadgen"}, 2, `unknown command "loadgen"`},
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

// TestSnapshotBackends: for every popularity backend, snapshot build
// writes an artifact that inspect reports with that backend, link
// serves with an accuracy line and annotate on stdin finds and links a
// mention; an artifact refuses a -popularity naming another backend.
func TestSnapshotBackends(t *testing.T) {
	f := fixture
	dir := t.TempDir()
	page, err := os.ReadFile(f.text)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range pagerank.CentralityNames() {
		t.Run(backend, func(t *testing.T) {
			snap := filepath.Join(dir, backend+".snap")
			mustRun(t, "snapshot", "build", "-graph", f.graph, "-docs", f.docs, "-popularity", backend, "-out", snap)
			if out := mustRun(t, "snapshot", "inspect", snap).stdout; !strings.Contains(out, "centrality="+backend) {
				t.Errorf("snapshot inspect does not report centrality=%s:\n%s", backend, out)
			}
			if out := mustRun(t, "link", "-snapshot", snap, "-popularity", backend, "-docs", f.docs).stdout; !strings.Contains(out, "\naccuracy: ") {
				t.Errorf("link printed no accuracy line:\n%s", out)
			}
			if out := mustRunIn(t, bytes.NewReader(page), "annotate", "-snapshot", snap, "-popularity", backend).stdout; !strings.Contains(out, "\n[") {
				t.Errorf("annotate on stdin printed no annotation row:\n%s", out)
			}
		})
	}
	t.Run("degree artifact with -popularity hits", func(t *testing.T) {
		r := runCLI(t, "link", "-snapshot", filepath.Join(dir, "degree.snap"), "-popularity", "hits", "-docs", f.docs)
		if r.code != 1 || !strings.Contains(r.stderr, `built with centrality backend "degree"`) {
			t.Errorf("exit %d, stderr %q; want exit 1 naming the artifact's backend", r.code, r.stderr)
		}
	})
}

// smokeDelta is a self-contained graph delta for shine update: a new
// author, venue and paper with edges among them.
const smokeDelta = `{"op":"object","type":"author","name":"Delta Smoke Author"}
{"op":"object","type":"venue","name":"Delta Smoke Venue"}
{"op":"object","type":"paper","name":"delta smoke paper"}
{"op":"edge","rel":"write","src":{"type":"author","name":"Delta Smoke Author"},"dst":{"type":"paper","name":"delta smoke paper"}}
{"op":"edge","rel":"publish","src":{"type":"venue","name":"Delta Smoke Venue"},"dst":{"type":"paper","name":"delta smoke paper"}}
`

// TestServeSmoke boots serve from the artifact on a loopback port and
// links every fixture document over /v1/link and /v1/link/batch, then
// again after shine update has swapped in a new generation. SIGTERM
// must then drain the server to exit 0.
func TestServeSmoke(t *testing.T) {
	f := fixture
	docs, err := loadDocs(f.docs)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	// The deadline kills a server that hangs, so every wait below ends.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	srv, err := command(ctx, "serve", "-snapshot", f.snap, "-addr", addr)
	if err != nil {
		t.Fatal(err)
	}
	var output bytes.Buffer
	srv.Stdout, srv.Stderr = &output, &output
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var exitErr error
	go func() {
		exitErr = srv.Wait()
		close(done)
	}()
	t.Cleanup(func() {
		<-done
		if t.Failed() {
			t.Logf("shine serve output:\n%s", output.String())
		}
	})

	base := "http://" + addr
	for {
		resp, err := http.Get(base + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case <-done:
			t.Fatalf("shine serve exited before it was ready: %v", exitErr)
		case <-time.After(20 * time.Millisecond):
		}
	}

	linkAll(t, base, docs)
	r := mustRunIn(t, strings.NewReader(smokeDelta), "update", "-addr", base)
	if !strings.Contains(r.stdout, `"NewObjects":3`) {
		t.Errorf("update did not report the delta's three objects:\n%s", r.stdout)
	}
	linkAll(t, base, docs)

	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	<-done
	if exitErr != nil {
		t.Errorf("shine serve after SIGTERM: %v, want exit 0", exitErr)
	}
}

// linkAll posts every document to /v1/link from four goroutines and
// sends them all through each of four concurrent /v1/link/batch
// streams. Every document must link.
func linkAll(t *testing.T, base string, docs []synth.RawDoc) {
	t.Helper()
	const clients = 4
	jobs := make(chan synth.RawDoc)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for d := range jobs {
				if err := postLink(base, d); err != nil {
					t.Errorf("/v1/link %s: %v", d.ID, err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			if err := postBatch(base, docs); err != nil {
				t.Errorf("/v1/link/batch stream %d: %v", i, err)
			}
		}()
	}
	for _, d := range docs {
		jobs <- d
	}
	close(jobs)
	wg.Wait()
}

// postLink links one document over /v1/link.
func postLink(base string, d synth.RawDoc) error {
	body, err := json.Marshal(map[string]string{"mention": d.Mention, "text": d.Text})
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/v1/link", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("answered %s: %s", resp.Status, msg)
	}
	return err
}

// postBatch streams the documents through one /v1/link/batch request.
// Every line must be answered in order without an error, and the
// summary trailer must close the stream and count no failures.
func postBatch(base string, docs []synth.RawDoc) error {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, d := range docs {
		// Encoding strings into a bytes.Buffer cannot fail.
		_ = enc.Encode(map[string]string{"id": d.ID, "mention": d.Mention, "text": d.Text})
	}
	resp, err := http.Post(base+"/v1/link/batch", "application/x-ndjson", &body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("answered %s: %s", resp.Status, msg)
	}
	dec := json.NewDecoder(resp.Body)
	for i := 0; ; i++ {
		var line struct {
			ID, Error string
			Summary   *struct{ Docs, Failures int }
		}
		if err := dec.Decode(&line); err == io.EOF {
			return fmt.Errorf("stream ended after %d of %d lines with no summary trailer", i, len(docs))
		} else if err != nil {
			return fmt.Errorf("reading line %d: %w", i, err)
		}
		switch {
		case line.Summary != nil:
			if i != len(docs) || line.Summary.Docs != len(docs) || line.Summary.Failures != 0 {
				return fmt.Errorf("summary %+v after %d lines, want %d docs and no failures", *line.Summary, i, len(docs))
			}
			if dec.More() {
				return errors.New("lines after the summary trailer")
			}
			return nil
		case i >= len(docs):
			return fmt.Errorf("line %d answers none of the %d documents sent: %+v", i, len(docs), line)
		case line.ID != docs[i].ID || line.Error != "":
			return fmt.Errorf("line %d is %+v, want a link of %s", i, line, docs[i].ID)
		}
	}
}
