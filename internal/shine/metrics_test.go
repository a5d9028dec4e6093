package shine

import (
	"fmt"
	"strings"
	"testing"

	"shine/internal/corpus"
	"shine/internal/hin"
	"shine/internal/obs"
)

func TestLinkMetrics(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, nil)
	reg := obs.NewRegistry()
	m.SetMetrics(reg)

	if _, err := m.Link(f.docA); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(f.docB); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(corpus.NewDocument("x", "Unknown Person", hin.NoObject, nil)); err == nil {
		t.Fatal("unknown mention linked")
	}

	if got := reg.Counter(MetricLinkTotal).Value(); got != 3 {
		t.Errorf("link total = %d, want 3", got)
	}
	if got := reg.Counter(MetricLinkFailures).Value(); got != 1 {
		t.Errorf("link failures = %d, want 1", got)
	}
	lat := reg.Histogram(MetricLinkSeconds, nil)
	if got := lat.Count(); got != 3 {
		t.Errorf("latency observations = %d, want 3", got)
	}
	// Both Wei Wang docs have 2 candidates; failures record none.
	cands := reg.Histogram(MetricLinkCandidates, nil)
	if got := cands.Count(); got != 2 {
		t.Errorf("candidate observations = %d, want 2", got)
	}
	if got := cands.Sum(); got != 4 {
		t.Errorf("candidate sum = %v, want 4", got)
	}
}

func TestLinkNILMetrics(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, nil)
	reg := obs.NewRegistry()
	m.SetMetrics(reg)

	// An unknown surface form in NIL mode is a NIL prediction, not an
	// error.
	r, err := m.LinkNIL(corpus.NewDocument("x", "Unknown Person", hin.NoObject, nil), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Entity != hin.NoObject {
		t.Fatalf("unknown mention resolved to %v", r.Entity)
	}
	if got := reg.Counter(MetricLinkNIL).Value(); got != 1 {
		t.Errorf("NIL decisions = %d, want 1", got)
	}
	if got := reg.Counter(MetricLinkFailures).Value(); got != 0 {
		t.Errorf("failures = %d, want 0", got)
	}
}

func TestLearnMetrics(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, nil)
	reg := obs.NewRegistry()
	m.SetMetrics(reg)

	stats, err := m.Learn(f.corpus)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(MetricEMIterations).Value(); got != uint64(stats.EMIterations) {
		t.Errorf("EM iterations metric = %d, stats say %d", got, stats.EMIterations)
	}
	if got := reg.Histogram(MetricEMIterationSeconds, nil).Count(); got != uint64(stats.EMIterations) {
		t.Errorf("EM duration observations = %d, want %d", got, stats.EMIterations)
	}
	wantJ := stats.Objective[len(stats.Objective)-1]
	if got := reg.Gauge(MetricEMLogLikelihood).Value(); got != wantJ {
		t.Errorf("log-likelihood gauge = %v, want %v", got, wantJ)
	}
}

// TestBatchFailureMetric: a document that fails inside a LinkStream
// batch counts once in shine_link_failures_total, the one failure
// series every link path feeds.
func TestBatchFailureMetric(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, nil)
	reg := obs.NewRegistry()
	m.SetMetrics(reg)

	bad := corpus.NewDocument("bad", "Unknown Person", hin.NoObject, nil)
	got := linkAll(m, []*corpus.Document{f.docA, bad}, 2)
	if len(got) != 2 || got[0].Err != nil || got[1].Err == nil {
		t.Fatalf("stream results %+v, want one success then one failure", got)
	}
	if n := reg.Counter(MetricLinkFailures).Value(); n != 1 {
		t.Errorf("%s = %d, want 1", MetricLinkFailures, n)
	}
}

func TestSetMetricsRegistersWalkerCollector(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, nil)
	reg := obs.NewRegistry()
	m.SetMetrics(reg)
	m.SetMetrics(reg) // idempotent

	if _, err := m.Link(f.docA); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "shine_walker_cache_misses_total") {
		t.Errorf("walker cache counters missing from exposition:\n%s", out)
	}
	if strings.Count(out, "shine_walker_cache_entries") != 1 {
		t.Error("walker collector registered twice")
	}
}

func TestUninstrumentedModelLinks(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, nil)
	m.SetMetrics(nil)
	if _, err := m.Link(f.docA); err != nil {
		t.Fatal(err)
	}
}

// TestLatencyBucketsResolveMeasuredCosts: every latency histogram's
// buckets bracket the costs measured for it, so its p50 estimate lands
// within a factor of two of the cost rather than clamping to a bound
// far from it — the failure mode of the old 0.5 ms–10 s buckets on the
// HTTP histogram. The costs are the per-layer medians the repository
// benchmark records (bench/README.md, per-layer baseline, seed 1, both
// traced runs of both workloads) and the EM means of one
// `shine serve -graph -docs` boot on the default `shine gen` dataset
// (2 vCPUs). Every _seconds histogram the model registers needs a row.
func TestLatencyBucketsResolveMeasuredCosts(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, nil)
	reg := obs.NewRegistry()
	m.SetMetrics(reg)
	cases := []struct {
		metric, layer string
		medianUS      []float64
	}{
		{MetricLinkSeconds, "shine.link_us", []float64{26.21, 30.93, 40.45, 45.26}},
		{MetricCandidatesSeconds, "surftrie.lookup_us", []float64{1.226, 1.231, 1.447, 1.481}},
		{MetricStreamSeconds, "shine.stream_doc_us", []float64{20.44, 21.1, 27.42, 30.99}},
		{obs.MetricHTTPRequestSeconds, "server.handler_us", []float64{83.33, 98.44, 5655, 6488}},
		{MetricEMIterationSeconds, "EM iteration", []float64{54215}},
		{MetricEMPrepareSeconds, "EM prepare", []float64{96058}},
	}
	measured := map[string]bool{}
	for _, tc := range cases {
		measured[tc.metric] = true
	}
	var exposition strings.Builder
	if err := reg.WritePrometheus(&exposition); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(exposition.String(), "\n") {
		name, ok := strings.CutPrefix(line, "# TYPE ")
		name, hist := strings.CutSuffix(name, "_seconds histogram")
		if ok && hist && !measured[name+"_seconds"] {
			t.Errorf("%s_seconds has no measured cost to resolve", name)
		}
	}
	for _, tc := range cases {
		for _, us := range tc.medianUS {
			v := us * 1e-6
			// One labelled series per value, sharing the family's
			// buckets: the estimate must resolve this one cost alone.
			h := reg.Histogram(tc.metric, nil, "median_us", fmt.Sprint(us))
			for i := 0; i < 100; i++ {
				h.Observe(v)
			}
			if p50 := h.Quantile(0.5); p50 < v/2 || p50 > 2*v {
				t.Errorf("%s: %s median %v µs estimated as %v µs, want within 2×", tc.metric, tc.layer, us, p50*1e6)
			}
		}
	}
}
