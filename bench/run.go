package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"slices"
)

// runConfig is one workload's run.
type runConfig struct {
	workload  string
	seed      int64
	trace     bool
	work      string // scratch directory of the run
	spansPath string
	p         params
	target    target
	spec      *benchSpec
}

// runOne sets up the target setupReps times, warms it up, measures one
// phase, and, when tracing, replays the stream in-process.
func runOne(rc runConfig) (*report, error) {
	p, t := rc.p, rc.target
	defer t.close()
	ds, err := makeDataset(rc.work, p, rc.seed)
	if err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < p.setupReps; i++ {
		s, err := t.setup(ds)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	in, err := buildInputs(rc, ds, t.snapshotPath())
	if err != nil {
		return nil, err
	}
	// Collect the oracle's model now rather than during the load.
	runtime.GC()

	client := newClient()
	defer client.CloseIdleConnections()
	base := t.baseURL()
	op := newLoad(rc.workload, in, client, base)
	warm := closedLoop(newPhase(p.warmup), op)
	before, err := scrape(client, base)
	if err != nil {
		return nil, err
	}
	m := closedLoop(newPhase(p.measure), op)
	after, err := scrape(client, base)
	if err != nil {
		return nil, err
	}
	rss, err := t.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := t.close(); err != nil {
		return nil, err
	}

	if len(m.lat) == 0 {
		return nil, fmt.Errorf("the measured phase completed no op")
	}
	var rates, p50s, p90s []float64
	for _, w := range m.perWindow() {
		rates = append(rates, w.rate)
		if w.rate > 0 {
			p50s = append(p50s, w.p50)
			p90s = append(p90s, w.p90)
		}
	}
	e2e := map[string]float64{
		"setup_s":  median(setups),
		"p50_ms":   median(p50s),
		"p90_ms":   median(p90s),
		"rss_mb":   rss,
		"accuracy": m.accuracy(),
	}
	rep := &report{
		Workload: rc.workload, Seed: rc.seed, Seconds: p.measure.Seconds(), Trace: rc.trace,
		Correct:   m.failed == 0 && warm.failed == 0,
		Attempted: m.attempted, Failed: m.failed,
		Errors: append(warm.errs, m.errs...),
		Info: map[string]value{
			"error_frac": {float64(m.failed) / float64(max(m.attempted, 1)), "ratio"},
			"samples":    {float64(len(m.lat)), "count"},
			"warmup_s":   {p.warmup.Seconds(), "s"},
		},
	}
	bound := 0.0
	if s, ok := rc.spec.metric("p50_ms"); ok && s.Bound != nil {
		bound = *s.Bound
	}
	rep.WindowOpsPerS, rep.WindowP50ms = rates, p50s
	rep.Valid = len(p50s) == windows && steady(p50s, bound)
	if rep.EndToEnd, err = withUnits(rc.spec.EndToEnd, e2e); err != nil {
		return nil, err
	}
	if rc.trace {
		layers, err := traceRun(rc.workload, in, p, rc.seed, t.snapshotPath(), rc.work, rc.spansPath,
			e2eView{reqMeanMS: mean(m.lat), gapMS: median(m.gap), before: before, after: after})
		if err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		if rep.PerLayer, err = withUnits(rc.spec.PerLayer, layers); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// steady reports whether every window's value stays within bound of
// the median of the other windows'.
func steady(xs []float64, bound float64) bool {
	for i, x := range xs {
		med := median(slices.Delete(slices.Clone(xs), i, i+1))
		if math.Abs(x-med) > bound*med {
			return false
		}
	}
	return true
}

// buildInputs makes the run's request stream and the oracle's
// expected answers from the served snapshot.
func buildInputs(rc runConfig, ds *dataset, snap string) (*inputs, error) {
	p := rc.p
	in := &inputs{ds: ds}
	switch rc.workload {
	case "link":
		for _, i := range ds.order {
			in.links = append(in.links, mustJSON(linkRequest{ds.docs[i].Mention, ds.docs[i].Text}))
		}
	case "annotate":
		in.pages = ds.pages(p.pageDocs, p.pagePasses, rc.seed)
	}
	o, err := newOracle(snap, ds, in.pages)
	if err != nil {
		return nil, err
	}
	in.o = o
	return in, nil
}

// endpoint is the route a workload's ops are sent to.
func endpoint(workload string) string {
	if workload == "annotate" {
		return "/v1/annotate"
	}
	return "/v1/link"
}

func scrape(c *http.Client, base string) (prom, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return parseProm(string(b)), nil
}
