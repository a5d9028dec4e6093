package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"shine/internal/annotate"
	"shine/internal/corpus"
	"shine/internal/hin"
	"shine/internal/metapath"
	"shine/internal/obs"
	"shine/internal/pagerank"
	"shine/internal/server"
	"shine/internal/shine"
	"shine/internal/snapshot"
	"shine/internal/textproc"
)

// span is one timed call into a layer's public entry point. Spans of
// one replayed request share Req; children name their layer's caller
// in Parent. Children are replayed one after another right after the
// handler call rather than inside it, since the program itself is not
// instrumented, so a parent's self time is its duration minus the sum
// of its direct children's.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: none
	Req    int    `json:"req"`    // replayed op; -1 for probes
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the replay began
	End    int64  `json:"end_ns"`
	// N counts what the call handled: documents streamed, candidates
	// found, mentions spotted, EM iterations.
	N int `json:"n,omitempty"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

// time runs fn as a span and returns the span's id. fn returns N.
func (t *tracer) time(name string, parent, req int, fn func() int) int {
	start := time.Now()
	n := fn()
	end := time.Now()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), N: n})
	return len(t.spans)
}

func (s span) us() float64 { return float64(s.End-s.Start) / 1e3 }

func (t *tracer) each(name string, f func(span)) {
	for _, s := range t.spans {
		if s.Name == name {
			f(s)
		}
	}
}

// medianUS is the median duration of the named spans, in µs.
func (t *tracer) medianUS(name string) float64 {
	var d []float64
	t.each(name, func(s span) { d = append(d, s.us()) })
	return median(d)
}

func (t *tracer) meanN(name string) float64 {
	var n []float64
	t.each(name, func(s span) { n = append(n, float64(s.N)) })
	return mean(n)
}

// handlerChildren names, per workload, the replayed calls the request
// handler itself makes; server.self_us subtracts exactly these.
var handlerChildren = map[string][]string{
	"link":     {"corpus.Ingest", "shine.LinkContext"},
	"annotate": {"annotate.AnnotateContext"},
}

// replay is the traced run: the first ops of the run's request stream
// sent through an in-process server's handler, each followed by its
// calls into the layers below, then the set-up layers timed on their
// own. It runs after the end-to-end server has stopped.
type replay struct {
	workload string
	in       *inputs
	p        params
	seed     int64
	snap     string
	ops      int
	tr       tracer
	bytes    int64
}

func newReplay(workload string, in *inputs, p params, seed int64, snap string) *replay {
	return &replay{workload: workload, in: in, p: p, seed: seed, snap: snap, ops: p.replayOps[workload],
		tr: tracer{t0: time.Now()}}
}

func (r *replay) request(k int) []byte {
	if r.workload == "annotate" {
		return r.in.pages[k%len(r.in.pages)].body
	}
	return r.in.links[k%len(r.in.links)]
}

// load reads the served snapshot and restores its model, timing both.
func (r *replay) load() (*shine.Model, error) {
	var snap *snapshot.Snapshot
	var m *shine.Model
	var err error
	r.tr.time("snapshot.ReadFile", 0, -1, func() int { snap, err = snapshot.ReadFile(r.snap); return 0 })
	if err != nil {
		return nil, err
	}
	r.bytes = snap.Info().Bytes
	r.tr.time("snapshot.Model", 0, -1, func() int { m, err = snap.Model(); return 0 })
	return m, err
}

// handlerPass sends the replayed stream through a fresh in-process
// server and returns its wall time and /metrics before and after. With
// c set, each request is a span, c replays each op's children right
// after it, and the wall time leaves the children out.
func (r *replay) handlerPass(m *shine.Model, c *childReplay) (time.Duration, prom, prom, error) {
	cfg, err := ingestConfig(m.Graph())
	if err != nil {
		return 0, nil, nil, err
	}
	srv, err := server.New(m, cfg, server.Options{})
	if err != nil {
		return 0, nil, nil, err
	}
	var childTime time.Duration
	child := func(fn func() error) error {
		start := time.Now()
		err := fn()
		childTime += time.Since(start)
		return err
	}
	before := scrapeRegistry(srv)
	path := endpoint(r.workload)
	start := time.Now()
	for k := 0; k < r.ops; k++ {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(r.request(k)))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		id := 0
		if c != nil {
			id = r.tr.time("server.ServeHTTP", 0, k, func() int { srv.ServeHTTP(rec, req); return 0 })
		} else {
			srv.ServeHTTP(rec, req)
		}
		if rec.Code != http.StatusOK {
			return 0, nil, nil, fmt.Errorf("replayed %s %d: status %d: %s", path, k, rec.Code, snippet(rec.Body.Bytes()))
		}
		if c != nil {
			if err := child(func() error { return c.op(k, id) }); err != nil {
				return 0, nil, nil, err
			}
		}
	}
	if c != nil {
		if err := child(c.flush); err != nil {
			return 0, nil, nil, err
		}
	}
	return time.Since(start) - childTime, before, scrapeRegistry(srv), nil
}

// layers carries the per-layer objects the child pass calls into.
type layers struct {
	m    *shine.Model
	ing  *corpus.Ingester
	ann  *annotate.Annotator
	dict *textproc.Dictionary
}

func newLayers(m *shine.Model) (*layers, error) {
	cfg, err := ingestConfig(m.Graph())
	if err != nil {
		return nil, err
	}
	ing, err := corpus.NewIngester(m.Graph(), cfg)
	if err != nil {
		return nil, err
	}
	ann, err := annotate.New(m, cfg, annotate.Options{})
	if err != nil {
		return nil, err
	}
	// The spotting dictionary the annotator builds: every entity's
	// surface form.
	dict := textproc.NewDictionary()
	g := m.Graph()
	for _, e := range g.ObjectsOfType(m.EntityType()) {
		dict.Add(surface(g.Name(e)), struct{}{})
	}
	return &layers{m, ing, ann, dict}, nil
}

// childReplay replays, op by op, the calls the request handler makes into
// the layers below it, on a model of its own. It runs interleaved with
// the traced handler pass, so that a handler span and its children
// meet the same host conditions.
type childReplay struct {
	r          *replay
	l          *layers
	streamDocs []*corpus.Document // linked documents, streamed by flush
}

// link times ingesting one mention and linking it.
func (c *childReplay) link(k, parent int, mention, text string) error {
	r, l := c.r, c.l
	var doc *corpus.Document
	r.tr.time("corpus.Ingest", parent, k, func() int {
		doc = l.ing.Ingest(fmt.Sprintf("replay-%d", k), mention, hin.NoObject, text)
		return 0
	})
	var err error
	id := r.tr.time("shine.LinkContext", parent, k, func() int {
		_, err = l.m.LinkContext(context.Background(), doc)
		return 0
	})
	if err != nil {
		return fmt.Errorf("linking %q: %w", mention, err)
	}
	r.tr.time("surftrie.Candidates", id, k, func() int { return len(l.m.Candidates(mention)) })
	c.streamDocs = append(c.streamDocs, doc)
	return nil
}

// spot times spotting the text's mentions, then annotating the text.
func (c *childReplay) spot(k, parent int, text string) ([]textproc.Token, []textproc.Match, error) {
	r, l := c.r, c.l
	var toks []textproc.Token
	var matches []textproc.Match
	r.tr.time("textproc.Spot", parent, k, func() int {
		toks = textproc.Tokenize(text)
		matches = l.dict.FindAll(toks)
		return len(matches)
	})
	var err error
	r.tr.time("annotate.AnnotateContext", parent, k, func() int {
		var anns []annotate.Annotation
		anns, err = l.ann.AnnotateContext(context.Background(), fmt.Sprintf("replay-%d", k), text)
		return len(anns)
	})
	return toks, matches, err
}

// op replays op k's calls below the handler span parent.
func (c *childReplay) op(k, parent int) error {
	r := c.r
	if r.workload == "annotate" {
		text := r.in.pages[k%len(r.in.pages)].text
		toks, matches, err := c.spot(k, parent, text)
		if err != nil {
			return err
		}
		// Each spotted mention is linked in the context of the whole
		// page, as the annotator links it.
		for _, mt := range matches {
			surf := text[toks[mt.TokenStart].Start:toks[mt.TokenEnd-1].End]
			if err := c.link(k, parent, surf, text); err != nil {
				return err
			}
		}
		return nil
	}
	var req linkRequest
	if json.Unmarshal(r.request(k), &req) != nil {
		return fmt.Errorf("replayed request %d is not a link request", k)
	}
	if err := c.link(k, parent, req.Mention, req.Text); err != nil {
		return err
	}
	_, _, err := c.spot(k, parent, req.Text)
	return err
}

// streamBatch is how many documents the replay links per LinkStream
// call.
const streamBatch = 200

// flush streams the documents linked one by one, streamBatch at a time.
func (c *childReplay) flush() error {
	for len(c.streamDocs) > 0 {
		n := min(streamBatch, len(c.streamDocs))
		if err := c.r.stream(c.l.m, c.streamDocs[:n]); err != nil {
			return err
		}
		c.streamDocs = c.streamDocs[n:]
	}
	return nil
}

// stream links docs through LinkStream with the server's default
// worker count, as one span.
func (r *replay) stream(m *shine.Model, docs []*corpus.Document) error {
	var err error
	r.tr.time("shine.LinkStream", 0, -1, func() int {
		in := make(chan *corpus.Document)
		out := m.LinkStream(context.Background(), in, 0)
		go func() {
			defer close(in)
			for _, d := range docs {
				in <- d
			}
		}()
		n := 0
		for res := range out {
			if res.Err != nil && err == nil {
				err = res.Err
			}
			n++
		}
		return n
	})
	return err
}

// probes times the set-up layers on their own: graph read, centrality,
// EM, mixture precompute, fresh-walker mixtures and snapshot write.
func (r *replay) probes(served *shine.Model, dir string) error {
	var g *hin.Graph
	var err error
	for i := 0; i < r.p.probeReps && err == nil; i++ {
		r.tr.time("hin.ReadGraph", 0, -1, func() int {
			var f *os.File
			if f, err = os.Open(r.in.ds.graphPath); err == nil {
				g, err = hin.ReadGraph(f)
				f.Close()
			}
			return 0
		})
	}
	if err != nil {
		return err
	}
	for i := 0; i < r.p.probeReps && err == nil; i++ {
		r.tr.time("snapshot.WriteFile", 0, -1, func() int {
			_, err = snapshot.WriteFile(filepath.Join(dir, "probe.snap"), served.Parts())
			return 0
		})
	}
	if err != nil {
		return err
	}
	cfg := shine.DefaultConfig()
	author := served.EntityType()
	cen, err := pagerank.NewCentrality(cfg.CentralityName(), author)
	if err != nil {
		return err
	}
	for i := 0; i < r.p.probeReps && err == nil; i++ {
		r.tr.time("pagerank.Compute", 0, -1, func() int {
			var res *pagerank.Result
			if res, err = cen.Compute(g, cfg.PageRank); err != nil {
				return 0
			}
			return res.Iterations
		})
	}
	if err != nil {
		return err
	}
	var labels []string
	for _, p := range served.Paths() {
		labels = append(labels, p.String())
	}
	paths, err := metapath.ParseAll(g.Schema(), labels)
	if err != nil {
		return err
	}
	m, c, err := newModel(g, author, paths, r.in.ds.docs)
	if err != nil {
		return err
	}
	r.tr.time("shine.Learn", 0, -1, func() int {
		var st *shine.LearnStats
		if st, err = m.Learn(c); err != nil {
			return 0
		}
		return st.EMIterations
	})
	if err != nil {
		return err
	}
	r.tr.time("shine.PrecomputeMixtures", 0, -1, func() int { err = m.PrecomputeMixtures(); return m.MixtureStats().Entries })
	if err != nil {
		return err
	}
	wk := metapath.NewWalker(g, cfg.WalkCacheSize)
	w := m.Weights()
	ents := g.ObjectsOfType(author)
	for _, i := range rand.New(rand.NewSource(r.seed)).Perm(len(ents))[:min(r.p.walkEntities, len(ents))] {
		r.tr.time("metapath.WalkMixtureDist", 0, -1, func() int {
			_, err = wk.WalkMixtureDist(ents[i], paths, w, cfg.WalkPruning)
			return 0
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// e2eView is what the traced run takes from the end-to-end run it
// follows.
type e2eView struct {
	// gapMS is the client's median time between a reply and its next
	// request.
	reqMeanMS, gapMS float64
	// before and after are the served /metrics around the measured phase.
	before, after prom
}

// serverMeanUS is the served requests' mean duration inside the server
// between the scrapes, from its own latency histogram.
func (e e2eView) serverMeanUS(path string) float64 {
	d := func(part string) float64 {
		k := obs.MetricHTTPRequestSeconds + "_" + part + `{endpoint="` + path + `"}`
		return e.after[k] - e.before[k]
	}
	if d("count") == 0 {
		return 0
	}
	return 1e6 * d("sum") / d("count")
}

// traceRun runs the replay and probes and returns the per-layer
// metrics, writing the spans to spansPath.
func traceRun(workload string, in *inputs, p params, seed int64, snap, dir, spansPath string, e e2eView) (map[string]float64, error) {
	r := newReplay(workload, in, p, seed, snap)

	// Untraced handler passes before and after the traced one, each on
	// a fresh server, give the tracing overhead; bracketing the traced
	// pass keeps warm-up from reading as negative overhead.
	pass := func(traced bool) (time.Duration, prom, prom, error) {
		m, err := r.load()
		if err != nil {
			return 0, nil, nil, err
		}
		var c *childReplay
		if traced {
			cm, err := r.load()
			if err != nil {
				return 0, nil, nil, err
			}
			l, err := newLayers(cm)
			if err != nil {
				return 0, nil, nil, err
			}
			c = &childReplay{r: r, l: l}
		}
		return r.handlerPass(m, c)
	}
	plain1, _, _, err := pass(false)
	if err != nil {
		return nil, err
	}
	traced, before, after, err := pass(true)
	if err != nil {
		return nil, err
	}
	plain2, _, _, err := pass(false)
	if err != nil {
		return nil, err
	}
	plain := (plain1 + plain2) / 2
	m, err := r.load()
	if err != nil {
		return nil, err
	}
	if err := r.probes(m, dir); err != nil {
		return nil, err
	}
	if err := writeSpans(spansPath, workload, seed, r.tr.spans); err != nil {
		return nil, err
	}
	return r.metrics(e, plain, traced, before, after), nil
}

func (r *replay) metrics(e e2eView, plain, traced time.Duration, before, after prom) map[string]float64 {
	t := &r.tr
	handler := t.medianUS("server.ServeHTTP")
	delta := func(name string) float64 { return after[name] - before[name] }
	var streamUS, streamDocs float64
	t.each("shine.LinkStream", func(s span) { streamUS += s.us(); streamDocs += float64(s.N) })
	requests, non2xx := httpRequests(e.before, e.after)
	return map[string]float64{
		"server.handler_us":              handler,
		"server.transport_us":            e.reqMeanMS*1e3 - e.serverMeanUS(endpoint(r.workload)),
		"server.self_us":                 r.selfUS(),
		"server.requests":                requests,
		"server.non2xx":                  non2xx,
		"corpus.ingest_us":               t.medianUS("corpus.Ingest"),
		"textproc.spot_us":               t.medianUS("textproc.Spot"),
		"textproc.mentions_per_op":       t.meanN("textproc.Spot"),
		"annotate.annotate_us":           t.medianUS("annotate.AnnotateContext"),
		"surftrie.lookup_us":             t.medianUS("surftrie.Candidates"),
		"surftrie.lookups":               delta(shine.MetricCandidatesLookups),
		"surftrie.candidates_per_lookup": t.meanN("surftrie.Candidates"),
		"shine.link_us":                  t.medianUS("shine.LinkContext"),
		"shine.stream_doc_us":            streamUS / max(streamDocs, 1),
		"shine.learn_s":                  t.medianUS("shine.Learn") / 1e6,
		"shine.em_iterations":            t.meanN("shine.Learn"),
		"shine.precompute_s":             t.medianUS("shine.PrecomputeMixtures") / 1e6,
		"metapath.walk_mixture_us":       t.medianUS("metapath.WalkMixtureDist"),
		"pagerank.compute_ms":            t.medianUS("pagerank.Compute") / 1e3,
		"pagerank.iterations":            t.meanN("pagerank.Compute"),
		"hin.read_graph_ms":              t.medianUS("hin.ReadGraph") / 1e3,
		"snapshot.write_ms":              t.medianUS("snapshot.WriteFile") / 1e3,
		"snapshot.read_ms":               t.medianUS("snapshot.ReadFile") / 1e3,
		"snapshot.model_ms":              t.medianUS("snapshot.Model") / 1e3,
		"snapshot.bytes":                 float64(r.bytes),
		"bench.trace_overhead_pct":       100 * (traced.Seconds() - plain.Seconds()) / plain.Seconds(),
		"bench.client_gap_us":            e.gapMS * 1e3,
	}
}

// selfUS is the median over replayed requests of the handler span
// minus the handler's direct children.
func (r *replay) selfUS() float64 {
	onPath := map[string]bool{}
	for _, n := range handlerChildren[r.workload] {
		onPath[n] = true
	}
	self := map[int]float64{}
	for _, s := range r.tr.spans {
		switch {
		case s.Name == "server.ServeHTTP":
			self[s.Req] += s.us()
		case s.Req >= 0 && onPath[s.Name]:
			self[s.Req] -= s.us()
		}
	}
	var xs []float64
	for _, v := range self {
		xs = append(xs, v)
	}
	return median(xs)
}

func writeSpans(path, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return writeFile(path, func(w *bufio.Writer) error {
		return json.NewEncoder(w).Encode(struct {
			Workload string `json:"workload"`
			Seed     int64  `json:"seed"`
			Spans    []span `json:"spans"`
		}{workload, seed, spans})
	})
}

// prom is one /metrics scrape: series (name plus labels) to value.
type prom map[string]float64

func parseProm(text string) prom {
	out := prom{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(line[i+1:], &v); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

func scrapeRegistry(srv *server.Server) prom {
	var b bytes.Buffer
	// Writing to a bytes.Buffer cannot fail.
	_ = srv.Metrics().WritePrometheus(&b)
	return parseProm(b.String())
}

// httpRequests sums the model-serving requests between two scrapes,
// and those not answered 2xx. Scrapes and readiness probes are not
// the workload's traffic.
func httpRequests(before, after prom) (all, non2xx float64) {
	for k, v := range after {
		if !strings.HasPrefix(k, "shine_http_requests_total{") ||
			strings.Contains(k, `"/metrics"`) || strings.Contains(k, `"/v1/readyz"`) {
			continue
		}
		d := v - before[k]
		all += d
		if !strings.Contains(k, `code="2xx"`) {
			non2xx += d
		}
	}
	return all, non2xx
}
