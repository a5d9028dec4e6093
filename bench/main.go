// Command bench is the repository benchmark. It generates a seeded
// synthetic dataset, builds cmd/shine, times `shine snapshot build`
// plus `shine serve -snapshot` start-up, drives the server over
// loopback HTTP with one workload, checks every answer against the
// same snapshot linked in-process, and prints each end-to-end metric by
// name and unit. With -trace 1 it then replays the request stream
// in-process, times each layer's public entry point as a span, and
// prints the per-layer metrics instead. The last line of standard
// output is always one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"p50_ms": {"value": 0.17, "unit": "ms"}, ...}}
//
// Metric names, units, directions and regression bounds are defined in
// BENCHMARK.json at the repository root; bench/README.md explains them.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload link -seed 1 -seconds 10 -trace 0
//	bash bench/run.sh -workload all -seed 1 -json out.jsonl
//	bash bench/run.sh -compare parent.jsonl change.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "all", "workload: link, annotate or all")
	seed := flag.Int64("seed", 1, "seed of the dataset and the request streams")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	traceOn := flag.Int("trace", 0, "1: replay the run in-process with spans and print the per-layer metrics")
	jsonPath := flag.String("json", "", "append each run's full report to this file as one JSON line")
	compare := flag.Bool("compare", false, "compare the two -json report files named as arguments instead of running")
	root := flag.String("root", ".", "repository root")
	flag.Parse()

	var err error
	if *compare {
		err = runCompare(*root, flag.Args())
	} else {
		err = runBench(*root, *workload, *seed, *seconds, *traceOn, *jsonPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json, the benchmark's definition.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *benchSpec) metric(name string) (metricSpec, bool) {
	for _, m := range append(slices.Clone(s.EndToEnd), s.PerLayer...) {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits attaches the spec's units to measured values. The measured
// names must be exactly the spec's, so that the harness and
// BENCHMARK.json cannot drift apart.
func withUnits(spec []metricSpec, got map[string]float64) (map[string]value, error) {
	out := map[string]value{}
	for _, m := range spec {
		v, ok := got[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s measured as %v", m.Name, v)
		}
		out[m.Name] = value{v, m.Unit}
	}
	if len(out) != len(got) {
		return nil, fmt.Errorf("measured %d metrics, BENCHMARK.json lists %d", len(got), len(out))
	}
	return out, nil
}

// host identifies where a report was measured.
type host struct {
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func hostInfo() host {
	h := host{NProc: runtime.NumCPU(), Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// commitOf reads the checked-out commit from root/.git without running
// git; a checkout that is not a repository reports "unknown".
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// report is one run's full record, as -json writes it.
type report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     bool     `json:"trace"`
	Host      host     `json:"host"`
	Commit    string   `json:"commit"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Valid is false when a window's median latency lies more than the
	// p50_ms bound away from the median of the other windows'.
	Valid         bool      `json:"valid"`
	WindowOpsPerS []float64 `json:"window_ops_per_s"`
	WindowP50ms   []float64 `json:"window_p50_ms"`
	// EndToEnd and PerLayer hold the BENCHMARK.json metrics measured;
	// PerLayer only on traced runs. Info holds figures with no bound.
	EndToEnd map[string]value `json:"end_to_end"`
	PerLayer map[string]value `json:"per_layer,omitempty"`
	Info     map[string]value `json:"info"`
}

// runTimeout bounds one workload's run after the build. A run that
// hangs is killed with its children rather than left running.
const runTimeout = 170 * time.Second

func runBench(root, workload string, seed int64, seconds, traceOn int, jsonPath string) error {
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	var names []string
	for _, w := range spec.Workloads {
		if workload == "all" || workload == w.Name {
			names = append(names, w.Name)
		}
	}
	switch {
	case len(names) == 0:
		return fmt.Errorf("unknown workload %q", workload)
	case traceOn != 0 && traceOn != 1:
		return fmt.Errorf("-trace is 0 or 1, not %d", traceOn)
	case seconds < 1:
		return fmt.Errorf("-seconds must be at least 1")
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	bin, err := buildShine(root, build)
	if err != nil {
		return err
	}
	h, commit := hostInfo(), commitOf(root)

	var reps []*report
	for _, w := range names {
		work, err := os.MkdirTemp(build, "run-")
		if err != nil {
			return err
		}
		rc := runConfig{
			workload: w, seed: seed, trace: traceOn == 1, work: work,
			spansPath: filepath.Join(build, "trace", fmt.Sprintf("%s-seed%d.json", w, seed)),
			p:         defaultParams(seconds),
			target:    newProcTarget(bin, work),
			spec:      spec,
		}
		watchdog := time.AfterFunc(runTimeout, func() {
			fmt.Fprintf(os.Stderr, "bench: %s run exceeded %v; killing it\n", w, runTimeout)
			killChildren()
			os.Exit(3)
		})
		rep, err := runOne(rc)
		watchdog.Stop()
		os.RemoveAll(work)
		if err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		rep.Host, rep.Commit = h, commit
		printReport(os.Stdout, rep)
		if jsonPath != "" {
			if err := appendJSON(jsonPath, rep); err != nil {
				return err
			}
		}
		reps = append(reps, rep)
	}
	return printResult(os.Stdout, reps)
}

// buildShine compiles the program under test from the checkout.
func buildShine(root, out string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(out, "shine"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/shine")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/shine: %v\n%s", err, b)
	}
	return bin, nil
}

func appendJSON(path string, rep *report) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(rep)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func printReport(w io.Writer, r *report) {
	fmt.Fprintf(w, "workload=%s seed=%d seconds=%g trace=%v commit=%s go=%s nproc=%d gomaxprocs=%d cpu=%q\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Commit, r.Host.Go, r.Host.NProc, r.Host.GOMAXPROCS, r.Host.CPU)
	for _, group := range []map[string]value{r.EndToEnd, r.PerLayer, r.Info} {
		keys := make([]string, 0, len(group))
		for k := range group {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", k, group[k].Value, group[k].Unit)
		}
	}
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d valid=%v window_ops_per_s=%.0f window_p50_ms=%.3g\n",
		r.Correct, r.Attempted, r.Failed, r.Valid, r.WindowOpsPerS, r.WindowP50ms)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
}

// printResult prints the final line: a traced run's per-layer metrics,
// otherwise its end-to-end ones. With several workloads each name is
// prefixed by its workload.
func printResult(w io.Writer, reps []*report) error {
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range reps {
		res.Correct = res.Correct && r.Correct
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		ms := r.EndToEnd
		if r.Trace {
			ms = r.PerLayer
		}
		for k, v := range ms {
			if len(reps) > 1 {
				k = r.Workload + "." + k
			}
			res.Metrics[k] = v
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// readReports reads a -json file: one report per line.
func readReports(path string) ([]*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, &r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, errors.New(path + " holds no reports")
	}
	return out, nil
}
