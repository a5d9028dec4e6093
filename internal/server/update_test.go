package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"shine/internal/corpus"
	"shine/internal/hin"
	"shine/internal/metapath"
	"shine/internal/shine"
)

// deltaBatch renders NDJSON staging one new paper wired into Wei Wang
// 0002's neighbourhood.
func deltaBatch(name string) string {
	return strings.Join([]string{
		fmt.Sprintf(`{"op":"object","type":"paper","name":%q}`, name),
		fmt.Sprintf(`{"op":"edge","rel":"write","src":{"type":"author","name":"Wei Wang 0002"},"dst":{"type":"paper","name":%q}}`, name),
		fmt.Sprintf(`{"op":"edge","rel":"publish","src":{"type":"venue","name":"NIPS"},"dst":{"type":"paper","name":%q}}`, name),
		"",
	}, "\n")
}

func TestUpdateEndpoint(t *testing.T) {
	s, _ := testServer(t, Options{})
	before := s.serving.Load()
	objsBefore := before.model.Graph().NumObjects()

	w := postJSON(t, s, "/v1/admin/update", deltaBatch("upd-p0"))
	if w.Code != http.StatusOK {
		t.Fatalf("update: status %d: %s", w.Code, w.Body.String())
	}
	var resp struct {
		Status string            `json:"status"`
		Stats  shine.UpdateStats `json:"stats"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding update response: %v", err)
	}
	if resp.Status != "updated" || resp.Stats.NewObjects != 1 || resp.Stats.NewEdges != 2 {
		t.Errorf("response = %+v, want 1 new object, 2 new edges", resp)
	}

	after := s.serving.Load()
	if after == before {
		t.Fatal("serving generation did not swap")
	}
	if got := after.model.Graph().NumObjects(); got != objsBefore+1 {
		t.Errorf("new generation has %d objects, want %d", got, objsBefore+1)
	}
	// The old generation is untouched — requests admitted before the
	// swap finish on a consistent graph.
	if got := before.model.Graph().NumObjects(); got != objsBefore {
		t.Errorf("old generation mutated: %d objects, want %d", got, objsBefore)
	}
	// Linking still works on the new generation.
	if w := postJSON(t, s, "/v1/link",
		`{"mention": "Wei Wang", "text": "data at SIGMOD with Richard R. Muntz"}`); w.Code != http.StatusOK {
		t.Errorf("link after update: status %d: %s", w.Code, w.Body.String())
	}
	// Metrics recorded the merge.
	if got := s.delta.merges.Value(); got != 1 {
		t.Errorf("merge counter = %v, want 1", got)
	}
	if got := s.delta.edges.Value(); got != 2 {
		t.Errorf("edge counter = %v, want 2", got)
	}
	if got := s.delta.failures.Value(); got != 0 {
		t.Errorf("failure counter = %v, want 0", got)
	}
	// The iterations gauge reports the update's refresh (PageRank
	// popularity is the default for testServer models).
	mw := do(s, http.MethodGet, "/metrics", "")
	series := fmt.Sprintf("%s %d\n", shine.MetricCentralityIterations, resp.Stats.PageRankIterations)
	if resp.Stats.PageRankIterations == 0 || !strings.Contains(mw.Body.String(), series) {
		t.Errorf("exposition lacks %q (update took %d sweeps)", series, resp.Stats.PageRankIterations)
	}
}

func TestUpdateRejectsBadBatches(t *testing.T) {
	s, _ := testServer(t, Options{})
	before := s.serving.Load()
	cases := []struct {
		name, body string
	}{
		{"empty body", ""},
		{"blank lines only", "\n  \n"},
		{"invalid JSON", "{nope"},
		{"unknown op", `{"op":"vertex","type":"paper","name":"x"}`},
		{"unknown field", `{"op":"object","type":"paper","name":"x","bogus":1}`},
		{"unknown type", `{"op":"object","type":"gadget","name":"x"}`},
		{"missing name", `{"op":"object","type":"paper"}`},
		{"unknown relation", deltaBatch("x") + `{"op":"edge","rel":"likes","src":{"type":"author","name":"Wei Wang 0002"},"dst":{"type":"paper","name":"x"}}`},
		{"unresolved ref", `{"op":"edge","rel":"write","src":{"type":"author","name":"Nobody"},"dst":{"type":"paper","name":"w2p0"}}`},
		{"type mismatch", `{"op":"edge","rel":"write","src":{"type":"venue","name":"NIPS"},"dst":{"type":"paper","name":"w2p0"}}`},
		{"trailing data", `{"op":"object","type":"paper","name":"x"} extra`},
	}
	for _, tc := range cases {
		w := postJSON(t, s, "/v1/admin/update", tc.body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, w.Code, w.Body.String())
		}
	}
	if s.serving.Load() != before {
		t.Error("a rejected batch swapped the serving generation")
	}
	if got := s.delta.merges.Value(); got != 0 {
		t.Errorf("merge counter = %v after rejected batches, want 0", got)
	}
}

// blankLines is an update body of n bytes of blank NDJSON lines, each
// 1 KiB (well under the line bound), generated as it is read.
type blankLines struct{ off, n int64 }

func (r *blankLines) Read(p []byte) (int, error) {
	if r.off == r.n {
		return 0, io.EOF
	}
	p = p[:min(int64(len(p)), r.n-r.off)]
	for i := range p {
		p[i] = ' '
		if (r.off+int64(i))%1024 == 1023 {
			p[i] = '\n'
		}
	}
	r.off += int64(len(p))
	return len(p), nil
}

// TestUpdateBodyBound: an update body one byte over maxUpdateBytes is
// answered 413 with the bound in the message, and nothing swaps. The
// body is generated as the server reads it, so the test holds no
// 64 MiB buffer.
func TestUpdateBodyBound(t *testing.T) {
	s, _ := testServer(t, Options{})
	before := s.serving.Load()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/admin/update", &blankLines{n: maxUpdateBytes + 1}))
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", w.Code, w.Body.String())
	}
	if want := fmt.Sprintf("update body exceeds %d bytes", maxUpdateBytes); !strings.Contains(w.Body.String(), want) {
		t.Errorf("413 body %q does not name the bound (%q)", w.Body.String(), want)
	}
	if s.serving.Load() != before {
		t.Error("an oversized batch swapped the serving generation")
	}
}

// TestUpdateConflict: update shares Reload's single-flight lock — a
// structural change already in flight turns a concurrent update away
// with 409, and vice versa.
func TestUpdateConflict(t *testing.T) {
	path, _ := writeTestSnapshot(t)
	s, _ := testServer(t, Options{SnapshotPath: path})
	s.reloadMu.Lock()
	w := postJSON(t, s, "/v1/admin/update", deltaBatch("c0"))
	if w.Code != http.StatusConflict {
		t.Errorf("update during reload: status %d, want 409: %s", w.Code, w.Body.String())
	}
	wr := postJSON(t, s, "/v1/admin/reload", "")
	if wr.Code != http.StatusConflict {
		t.Errorf("reload during update: status %d, want 409: %s", wr.Code, wr.Body.String())
	}
	s.reloadMu.Unlock()

	// Lock released: both proceed again.
	if w := postJSON(t, s, "/v1/admin/update", deltaBatch("c1")); w.Code != http.StatusOK {
		t.Errorf("update after unlock: status %d: %s", w.Code, w.Body.String())
	}
}

// uniformTestServer builds a server whose model uses uniform
// popularity — the configuration under which incremental updates are
// pinned bit-identical to cold rebuilds — and returns the base graph
// and corpus for the cold-rebuild comparison.
func uniformTestServer(t testing.TB) (*Server, *hin.DBLPSchema, *hin.Graph, *corpus.Corpus) {
	t.Helper()
	d := hin.NewDBLPSchema()
	b := hin.NewBuilder(d.Schema)
	w1 := b.MustAddObject(d.Author, "Wei Wang 0001")
	w2 := b.MustAddObject(d.Author, "Wei Wang 0002")
	muntz := b.MustAddObject(d.Author, "Richard R. Muntz")
	sigmod := b.MustAddObject(d.Venue, "SIGMOD")
	nips := b.MustAddObject(d.Venue, "NIPS")
	data := b.MustAddObject(d.Term, "data")
	neural := b.MustAddObject(d.Term, "neural")
	for i := 0; i < 4; i++ {
		p := b.MustAddObject(d.Paper, fmt.Sprintf("w1p%d", i))
		b.MustAddLink(d.Write, w1, p)
		b.MustAddLink(d.Write, muntz, p)
		b.MustAddLink(d.Publish, sigmod, p)
		b.MustAddLink(d.Contain, p, data)
	}
	p := b.MustAddObject(d.Paper, "w2p0")
	b.MustAddLink(d.Write, w2, p)
	b.MustAddLink(d.Publish, nips, p)
	b.MustAddLink(d.Contain, p, neural)
	g := b.Build()

	c := &corpus.Corpus{}
	c.Add(corpus.NewDocument("s1", "Wei Wang", w1, []hin.ObjectID{muntz, sigmod, data}))
	c.Add(corpus.NewDocument("s2", "Wei Wang", w2, []hin.ObjectID{nips, neural}))
	cfg := shine.DefaultConfig()
	cfg.Popularity = shine.PopularityUniform
	m, err := shine.New(g, d.Author, metapath.DBLPPaperPaths(d), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(m, corpus.DBLPIngestConfig(d), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s, d, g, c
}

// TestUpdateUnderLoad drives 20 delta batches through the update
// endpoint while 8 concurrent linkers hammer /v1/link: no request may
// see a 5xx, and the final generation's posteriors must be
// bit-identical to a model cold-rebuilt over the same deltas — proof
// that no stale cache entry survived where it mattered.
func TestUpdateUnderLoad(t *testing.T) {
	s, d, g, c := uniformTestServer(t)

	const (
		linkers = 8
		batches = 20
	)
	var (
		stop     atomic.Bool
		non2xx   atomic.Int64
		linkWg   sync.WaitGroup
		linkBody = `{"mention": "Wei Wang", "text": "Wei Wang works on data at SIGMOD with Richard R. Muntz"}`
	)
	for i := 0; i < linkers; i++ {
		linkWg.Add(1)
		go func() {
			defer linkWg.Done()
			for !stop.Load() {
				w := postJSON(t, s, "/v1/link", linkBody)
				if w.Code >= 500 {
					non2xx.Add(1)
				}
			}
		}()
	}

	for i := 0; i < batches; i++ {
		w := postJSON(t, s, "/v1/admin/update", deltaBatch(fmt.Sprintf("load-p%d", i)))
		if w.Code != http.StatusOK {
			t.Fatalf("batch %d: status %d: %s", i, w.Code, w.Body.String())
		}
	}
	stop.Store(true)
	linkWg.Wait()

	if n := non2xx.Load(); n != 0 {
		t.Errorf("%d link requests got 5xx during updates", n)
	}
	if got := s.delta.merges.Value(); got != batches {
		t.Errorf("merge counter = %v, want %d", got, batches)
	}

	// Cold rebuild over the same deltas, applied the same way.
	gCold := g
	for i := 0; i < batches; i++ {
		dl := gCold.Append()
		paper := dl.MustAppend(d.Paper, fmt.Sprintf("load-p%d", i))
		w2, _ := dl.Lookup(d.Author, "Wei Wang 0002")
		nips, _ := dl.Lookup(d.Venue, "NIPS")
		dl.MustPatch(d.Write, w2, paper)
		dl.MustPatch(d.Publish, nips, paper)
		gCold, _ = dl.Merge()
	}
	cfg := shine.DefaultConfig()
	cfg.Popularity = shine.PopularityUniform
	mCold, err := shine.New(gCold, d.Author, metapath.DBLPPaperPaths(d), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mServing := s.serving.Load().model
	if got, want := mServing.Graph().NumObjects(), gCold.NumObjects(); got != want {
		t.Fatalf("serving graph has %d objects, cold has %d", got, want)
	}
	for _, doc := range c.Docs {
		inc, err := mServing.Link(doc)
		if err != nil {
			t.Fatalf("serving Link(%s): %v", doc.ID, err)
		}
		cold, err := mCold.Link(doc)
		if err != nil {
			t.Fatalf("cold Link(%s): %v", doc.ID, err)
		}
		if inc.Entity != cold.Entity || len(inc.Candidates) != len(cold.Candidates) {
			t.Fatalf("doc %s: serving linked %d (%d candidates), cold %d (%d)",
				doc.ID, inc.Entity, len(inc.Candidates), cold.Entity, len(cold.Candidates))
		}
		for i := range inc.Candidates {
			if math.Float64bits(inc.Candidates[i].Posterior) != math.Float64bits(cold.Candidates[i].Posterior) {
				t.Errorf("doc %s candidate %d: posterior %x != cold %x — a stale cache entry survived",
					doc.ID, i,
					math.Float64bits(inc.Candidates[i].Posterior),
					math.Float64bits(cold.Candidates[i].Posterior))
			}
		}
	}
}

// FuzzDeltaPatch holds the NDJSON delta parser to its contract: any
// line either errors out cleanly or stages operations that merge into
// a graph passing full validation, with the degree cache coherent.
func FuzzDeltaPatch(f *testing.F) {
	d := hin.NewDBLPSchema()
	b := hin.NewBuilder(d.Schema)
	a := b.MustAddObject(d.Author, "a0")
	v := b.MustAddObject(d.Venue, "v0")
	for i := 0; i < 3; i++ {
		p := b.MustAddObject(d.Paper, fmt.Sprintf("p%d", i))
		b.MustAddLink(d.Write, a, p)
		b.MustAddLink(d.Publish, v, p)
	}
	g := b.Build()

	f.Add(`{"op":"object","type":"paper","name":"new-p"}`)
	f.Add(`{"op":"edge","rel":"write","src":{"type":"author","name":"a0"},"dst":{"type":"paper","name":"p0"}}`)
	f.Add(`{"op":"edge","rel":"writtenBy","src":{"type":"paper","name":"p1"},"dst":{"type":"author","name":"a0"}}`)
	f.Add(`{"op":"object","type":"gadget","name":"x"}`)
	f.Add(`{nope`)
	f.Add(`{"op":"object","type":"paper","name":"p0"}`)

	f.Fuzz(func(t *testing.T, line string) {
		delta := g.Append()
		if err := stageOp(g, delta, []byte(line)); err != nil {
			return // rejected lines must simply not stage anything
		}
		merged, stats := delta.Merge()
		if err := merged.Validate(); err != nil {
			t.Fatalf("merged graph invalid: %v\nline: %q", err, line)
		}
		if merged.NumObjects() != g.NumObjects()+stats.NewObjects || merged.NumLinks() != g.NumLinks()+stats.NewEdges {
			t.Fatalf("stats %+v disagree with the merge (%d -> %d objects, %d -> %d links)",
				stats, g.NumObjects(), merged.NumObjects(), g.NumLinks(), merged.NumLinks())
		}
		merged.TotalDegrees() // must not panic: degree cache sealed
	})
}
