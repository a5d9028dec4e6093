package server

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"shine/internal/corpus"
	"shine/internal/hin"
	"shine/internal/metapath"
	"shine/internal/shine"
)

// testServer builds a server over the two-Wangs scenario.
func testServer(t testing.TB, opts Options) (*Server, map[string]hin.ObjectID) {
	t.Helper()
	m, cfg, ids := testModel(t)
	s, err := New(m, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, ids
}

// testModel builds the two-Wangs model and ingestion config without a
// server, for tests that exercise New's option validation directly.
func testModel(t testing.TB) (*shine.Model, corpus.IngestConfig, map[string]hin.ObjectID) {
	t.Helper()
	d := hin.NewDBLPSchema()
	b := hin.NewBuilder(d.Schema)
	ids := map[string]hin.ObjectID{
		"w1":     b.MustAddObject(d.Author, "Wei Wang 0001"),
		"w2":     b.MustAddObject(d.Author, "Wei Wang 0002"),
		"muntz":  b.MustAddObject(d.Author, "Richard R. Muntz"),
		"sigmod": b.MustAddObject(d.Venue, "SIGMOD"),
		"nips":   b.MustAddObject(d.Venue, "NIPS"),
		"data":   b.MustAddObject(d.Term, "data"),
		"neural": b.MustAddObject(d.Term, "neural"),
	}
	for i := 0; i < 4; i++ {
		p := b.MustAddObject(d.Paper, fmt.Sprintf("w1p%d", i))
		b.MustAddLink(d.Write, ids["w1"], p)
		b.MustAddLink(d.Write, ids["muntz"], p)
		b.MustAddLink(d.Publish, ids["sigmod"], p)
		b.MustAddLink(d.Contain, p, ids["data"])
	}
	p := b.MustAddObject(d.Paper, "w2p0")
	b.MustAddLink(d.Write, ids["w2"], p)
	b.MustAddLink(d.Publish, ids["nips"], p)
	b.MustAddLink(d.Contain, p, ids["neural"])
	g := b.Build()

	c := &corpus.Corpus{}
	c.Add(corpus.NewDocument("s1", "Wei Wang", ids["w1"],
		[]hin.ObjectID{ids["muntz"], ids["sigmod"], ids["data"]}))
	c.Add(corpus.NewDocument("s2", "Wei Wang", ids["w2"],
		[]hin.ObjectID{ids["nips"], ids["neural"]}))
	m, err := shine.New(g, d.Author, metapath.DBLPPaperPaths(d), c, shine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m, corpus.DBLPIngestConfig(d), ids
}

func postJSON(t testing.TB, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func TestLinkEndpoint(t *testing.T) {
	s, ids := testServer(t, Options{})
	w := postJSON(t, s, "/v1/link",
		`{"mention": "Wei Wang", "text": "Wei Wang works on data at SIGMOD with Richard R. Muntz"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp struct {
		Entity     *int32 `json:"entity"`
		Name       string `json:"name"`
		Candidates []struct {
			Posterior float64 `json:"posterior"`
		} `json:"candidates"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if resp.Entity == nil || hin.ObjectID(*resp.Entity) != ids["w1"] {
		t.Errorf("linked to %v (%s), want w1", resp.Entity, resp.Name)
	}
	if len(resp.Candidates) != 2 {
		t.Errorf("candidates = %d", len(resp.Candidates))
	}
	sum := 0.0
	for _, c := range resp.Candidates {
		sum += c.Posterior
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("posteriors sum to %v", sum)
	}
}

func TestLinkEndpointErrors(t *testing.T) {
	s, _ := testServer(t, Options{})
	if w := postJSON(t, s, "/v1/link", `{"text": "no mention"}`); w.Code != http.StatusBadRequest {
		t.Errorf("missing mention: status %d", w.Code)
	}
	if w := postJSON(t, s, "/v1/link", `{"mention": "Nobody Known", "text": "x"}`); w.Code != http.StatusNotFound {
		t.Errorf("unknown mention: status %d", w.Code)
	}
	if w := postJSON(t, s, "/v1/link", `{bad json`); w.Code != http.StatusBadRequest {
		t.Errorf("bad json: status %d", w.Code)
	}
	if w := postJSON(t, s, "/v1/link", `{"mention": "x", "unknownField": 1}`); w.Code != http.StatusBadRequest {
		t.Errorf("unknown field: status %d", w.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/link", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET on link: status %d", w.Code)
	}
}

func TestLinkEndpointNILMode(t *testing.T) {
	s, _ := testServer(t, Options{NILPrior: 0.3})
	// A mention known to the network but with foreign context may NIL;
	// the essential contract is that the NIL candidate (null entity)
	// appears in the response.
	w := postJSON(t, s, "/v1/link", `{"mention": "Wei Wang", "text": ""}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp struct {
		Candidates []struct {
			Entity *int32 `json:"entity"`
		} `json:"candidates"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	hasNIL := false
	for _, c := range resp.Candidates {
		if c.Entity == nil {
			hasNIL = true
		}
	}
	if !hasNIL {
		t.Error("NIL pseudo-candidate missing in NIL mode")
	}
}

func TestAnnotateEndpoint(t *testing.T) {
	s, _ := testServer(t, Options{})
	w := postJSON(t, s, "/v1/annotate",
		`{"text": "Wei Wang collaborates with Richard R. Muntz on data at SIGMOD."}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp struct {
		Annotations []annotationJSON `json:"annotations"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Annotations) != 2 {
		t.Fatalf("got %d annotations: %+v", len(resp.Annotations), resp.Annotations)
	}
	if w := postJSON(t, s, "/v1/annotate", `{}`); w.Code != http.StatusBadRequest {
		t.Errorf("empty text: status %d", w.Code)
	}
}

func TestExplainEndpoint(t *testing.T) {
	s, _ := testServer(t, Options{})
	w := postJSON(t, s, "/v1/explain",
		`{"mention": "Wei Wang", "text": "Wei Wang works on data at SIGMOD"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp explainResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Entity == nil || resp.RunnerUp == nil {
		t.Fatalf("explanation incomplete: %+v", resp)
	}
	if resp.Margin <= 0 || len(resp.Objects) == 0 {
		t.Errorf("explanation = %+v", resp)
	}
}

func TestEntityEndpoint(t *testing.T) {
	s, ids := testServer(t, Options{})
	req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/entity?id=%d", ids["w1"]), nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var resp entityResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Name != "Wei Wang 0001" || resp.Type != "author" || resp.Popularity <= 0 {
		t.Errorf("entity = %+v", resp)
	}
	// Errors.
	for _, q := range []string{"/v1/entity?id=99999", "/v1/entity?id=abc", "/v1/entity"} {
		req := httptest.NewRequest(http.MethodGet, q, nil)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code == http.StatusOK {
			t.Errorf("%s: status %d, want error", q, w.Code)
		}
	}
}

// TestHealthz: liveness also names the binary — the Go version that
// built it, and the VCS stamp exactly when the build carries one.
func TestHealthz(t *testing.T) {
	s, _ := testServer(t, Options{})
	req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"ok"`) {
		t.Errorf("healthz = %d %s", w.Code, w.Body.String())
	}
	var resp struct {
		Build map[string]any `json:"build"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding healthz: %v", err)
	}
	if got := resp.Build["goVersion"]; got != runtime.Version() {
		t.Errorf("build.goVersion = %v, want %s", got, runtime.Version())
	}
	stamped := false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			stamped = stamped || kv.Key == "vcs.revision"
		}
	}
	for _, field := range []string{"vcsRevision", "vcsModified"} {
		if _, ok := resp.Build[field]; ok != stamped {
			t.Errorf("build.%s present = %v, want %v, as the binary's VCS stamp", field, ok, stamped)
		}
	}
}

func TestBodyLimit(t *testing.T) {
	s, _ := testServer(t, Options{MaxBodyBytes: 64})
	big := `{"mention": "Wei Wang", "text": "` + strings.Repeat("x", 1000) + `"}`
	w := postJSON(t, s, "/v1/link", big)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", w.Code)
	}
	if !strings.Contains(w.Body.String(), "64") {
		t.Errorf("413 body should name the limit: %s", w.Body.String())
	}
}

func TestNewValidation(t *testing.T) {
	s, _ := testServer(t, Options{})
	_ = s
	d := hin.NewDBLPSchema()
	b := hin.NewBuilder(d.Schema)
	b.MustAddObject(d.Author, "Solo")
	g := b.Build()
	c := &corpus.Corpus{}
	c.Add(corpus.NewDocument("x", "Solo", hin.NoObject, []hin.ObjectID{0}))
	m, err := shine.New(g, d.Author, metapath.DBLPPaperPaths(d), c, shine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(m, corpus.DBLPIngestConfig(d), Options{NILPrior: 1}); err == nil {
		t.Error("NIL prior 1 accepted")
	}
}

func TestCandidatesEndpoint(t *testing.T) {
	s, _ := testServer(t, Options{})
	get := func(q string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, q, nil)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		return w
	}
	w := get("/v1/candidates?mention=Wei+Wang")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp candidatesResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Candidates) != 2 || resp.Loose {
		t.Errorf("strict candidates = %+v", resp)
	}
	// Loose first-initial search.
	w = get("/v1/candidates?mention=W.+Wang&loose=1")
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Candidates) != 2 || !resp.Loose {
		t.Errorf("loose candidates = %+v", resp)
	}
	// Errors.
	if w := get("/v1/candidates"); w.Code != http.StatusBadRequest {
		t.Errorf("missing mention: status %d", w.Code)
	}
	// Unknown mention: empty list, not an error.
	w = get("/v1/candidates?mention=Nobody+Here")
	if w.Code != http.StatusOK {
		t.Fatalf("unknown mention status %d", w.Code)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Candidates) != 0 {
		t.Errorf("unknown mention candidates = %+v", resp.Candidates)
	}
}

func TestRequestLogging(t *testing.T) {
	var logBuf strings.Builder
	s, _ := testServer(t, Options{Logger: log.New(&logBuf, "", 0)})
	req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if !strings.Contains(logBuf.String(), "GET /v1/healthz 200") {
		t.Errorf("log = %q", logBuf.String())
	}
	// Error statuses are logged too.
	logBuf.Reset()
	req = httptest.NewRequest(http.MethodGet, "/v1/entity?id=abc", nil)
	s.ServeHTTP(httptest.NewRecorder(), req)
	if !strings.Contains(logBuf.String(), "400") {
		t.Errorf("error log = %q", logBuf.String())
	}
}

// TestLinkEndpointNILPriorQueryParam covers the per-request nil_prior
// override: valid values switch the request into NIL mode, and
// non-finite or out-of-range values — NaN in particular, which slips
// through plain range comparisons — answer 400 instead of NaN-scored
// JSON.
func TestLinkEndpointNILPriorQueryParam(t *testing.T) {
	s, _ := testServer(t, Options{}) // server default: NIL mode off

	// A valid override turns NIL mode on for this request only.
	w := postJSON(t, s, "/v1/link?nil_prior=0.3", `{"mention": "Wei Wang", "text": ""}`)
	if w.Code != http.StatusOK {
		t.Fatalf("nil_prior=0.3: status %d: %s", w.Code, w.Body.String())
	}
	var resp struct {
		Candidates []struct {
			Entity *int32 `json:"entity"`
		} `json:"candidates"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	hasNIL := false
	for _, c := range resp.Candidates {
		if c.Entity == nil {
			hasNIL = true
		}
	}
	if !hasNIL {
		t.Error("nil_prior=0.3: NIL pseudo-candidate missing")
	}

	// The server default is untouched by the per-request override.
	w = postJSON(t, s, "/v1/link", `{"mention": "Wei Wang", "text": ""}`)
	if w.Code != http.StatusOK {
		t.Fatalf("follow-up without nil_prior: status %d", w.Code)
	}

	// Regression: NaN, Inf and out-of-range priors are rejected with
	// 400 before reaching the model.
	for _, bad := range []string{"NaN", "nan", "+Inf", "-Inf", "1", "1.5", "-0.1", "bogus"} {
		w := postJSON(t, s, "/v1/link?nil_prior="+bad, `{"mention": "Wei Wang", "text": ""}`)
		if w.Code != http.StatusBadRequest {
			t.Errorf("nil_prior=%s: status %d, want 400 (body %q)", bad, w.Code, w.Body.String())
		}
	}
}
