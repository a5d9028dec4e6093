package server

import (
	"net/http"
	"strings"
	"testing"

	"shine/internal/shine"
)

// TestMetricsLifecycleSeries: the request-lifecycle series and the Go
// runtime gauges all appear in the Prometheus exposition from the
// first scrape, whether or not the corresponding option is enabled —
// dashboards and alerts must not silently reference a series that
// only exists after the first panic or shed.
func TestMetricsLifecycleSeries(t *testing.T) {
	s, _ := testServer(t, Options{})
	// One link so the walker series have been collected at least once.
	postJSON(t, s, "/v1/link",
		`{"mention": "Wei Wang", "text": "Wei Wang works on data at SIGMOD"}`)
	w := do(s, http.MethodGet, "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", w.Code)
	}
	body := w.Body.String()
	for _, series := range []string{
		MetricPanics,
		MetricRequestsShed,
		MetricRequestsCanceled,
		MetricRequestsInFlight,
		MetricRequestsQueued,
		MetricReady,
		"shine_walker_walks_total",
		"shine_walker_walk_hops_total",
		"shine_walker_walks_canceled_total",
		shine.MetricCentralityIterations,
		"shine_go_heap_live_bytes",
		"shine_go_heap_goal_bytes",
		"shine_go_memory_total_bytes",
		"shine_go_goroutines",
		"shine_go_gc_cycles_total",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("exposition missing %s", series)
		}
	}
	// The centrality gauges have one name each; the retired
	// shine_pagerank_* twins must not come back.
	if strings.Contains(body, "shine_pagerank_") {
		t.Error("exposition still carries a shine_pagerank_ series")
	}
	if !strings.Contains(body, MetricReady+" 1") {
		t.Errorf("%s should read 1 on a fresh server", MetricReady)
	}
}
