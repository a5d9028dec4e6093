package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"shine/internal/metapath"
	"shine/internal/server"
	"shine/internal/snapshot"
)

// inProcTarget serves in the test process: it learns the model, writes
// the snapshot and serves what it reads back through server.New behind
// httptest, so the load still crosses loopback HTTP.
type inProcTarget struct {
	snap string
	ts   *httptest.Server
}

func (t *inProcTarget) setup(ds *dataset) (float64, error) {
	t.close()
	start := time.Now()
	s := ds.net.Schema
	m, c, err := newModel(ds.net.Graph, s.Author, metapath.DBLPPaperPaths(s), ds.docs)
	if err != nil {
		return 0, err
	}
	if _, err := m.Learn(c); err != nil {
		return 0, err
	}
	if err := m.PrecomputeMixtures(); err != nil {
		return 0, err
	}
	if _, err := snapshot.WriteFile(t.snap, m.Parts()); err != nil {
		return 0, err
	}
	served, info, err := loadModel(t.snap)
	if err != nil {
		return 0, err
	}
	cfg, err := ingestConfig(served.Graph())
	if err != nil {
		return 0, err
	}
	srv, err := server.New(served, cfg, server.Options{SnapshotInfo: &info})
	if err != nil {
		return 0, err
	}
	t.ts = httptest.NewServer(srv)
	return time.Since(start).Seconds(), nil
}

func (t *inProcTarget) baseURL() string             { return t.ts.URL }
func (t *inProcTarget) snapshotPath() string        { return t.snap }
func (t *inProcTarget) peakRSSMB() (float64, error) { return peakRSSMB("/proc/self/status") }

func (t *inProcTarget) close() error {
	if t.ts != nil {
		t.ts.Close()
		t.ts = nil
	}
	return nil
}

// smokeParams shrinks the benchmark to the quick dataset of 400 authors
// and about a second of load per workload.
func smokeParams() params {
	p := defaultParams(1)
	p.net.RegularAuthors = 400
	p.net.AmbiguousGroups = 8
	p.net.Topics = 4
	p.net.MaxPapersPerAuthor = 30
	p.docs.NumDocs = 120
	p.setupReps = 1
	p.warmup = 200 * time.Millisecond
	p.pagePasses = 1
	p.replayOps = map[string]int{"link": 30, "annotate": 2}
	p.probeReps = 1
	p.walkEntities = 10
	return p
}

// TestWorkloadsSmoke drives every workload, traced, against an
// in-process server and checks that each BENCHMARK.json metric is
// emitted with its unit and that no operation failed.
func TestWorkloadsSmoke(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			spans := filepath.Join(dir, "spans.json")
			rep, err := runOne(runConfig{
				workload: w.Name, seed: 1, trace: true, work: dir, spansPath: spans,
				p: smokeParams(), target: &inProcTarget{snap: filepath.Join(dir, "model.snap")}, spec: spec,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 || rep.Info["error_frac"].Value != 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d errors=%q", rep.Correct, rep.Attempted, rep.Failed, rep.Errors)
			}
			for _, g := range []struct {
				spec []metricSpec
				got  map[string]value
			}{{spec.EndToEnd, rep.EndToEnd}, {spec.PerLayer, rep.PerLayer}} {
				if len(g.got) != len(g.spec) {
					t.Errorf("%d metrics emitted, BENCHMARK.json lists %d", len(g.got), len(g.spec))
				}
				for _, m := range g.spec {
					if v, ok := g.got[m.Name]; !ok || v.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, v, ok, m.Unit)
					}
				}
			}
			b, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			var f struct{ Spans []span }
			if err := json.Unmarshal(b, &f); err != nil || len(f.Spans) == 0 {
				t.Fatalf("spans file: %d spans, err %v", len(f.Spans), err)
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	bound := 0.1
	lower := metricSpec{Name: "p50_ms", Better: "lower", Bound: &bound}
	base := []float64{10, 10.1, 9.9, 10.2, 9.8, 10, 10.1, 9.9, 10, 10}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	pairs := func(xs, ys []float64) [][2]float64 {
		var out [][2]float64
		for i := range xs {
			out = append(out, [2]float64{xs[i], ys[i]})
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		change []float64
		want   string
	}{
		{"same", base, "no change"},
		{"faster", scaled(0.8), "better"},
		{"slower beyond bound", scaled(1.3), "worse"},
		{"slower within bound", scaled(1.05), "no change"},
		{"too noisy", []float64{5, 15, 6, 14, 7, 13, 8, 12, 5, 15}, "unresolved"},
	} {
		if got := compareMetric(lower, base, tc.change, pairs(base, tc.change)).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
