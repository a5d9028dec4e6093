package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"shine/internal/shine"
)

// batchLines are NDJSON result lines plus the optional trailer,
// decoded structurally for assertions.
type decodedBatch struct {
	lines   []batchResultLine
	summary *batchSummary
}

// decodeBatch splits an NDJSON response body into result lines and
// the summary trailer, failing the test on malformed framing.
func decodeBatch(t *testing.T, body string) decodedBatch {
	t.Helper()
	var out decodedBatch
	for _, raw := range strings.Split(strings.TrimSpace(body), "\n") {
		if raw == "" {
			continue
		}
		if strings.Contains(raw, `"summary"`) {
			if out.summary != nil {
				t.Fatalf("two summary trailers in body:\n%s", body)
			}
			var tr struct {
				Summary batchSummary `json:"summary"`
			}
			if err := json.Unmarshal([]byte(raw), &tr); err != nil {
				t.Fatalf("decoding trailer %q: %v", raw, err)
			}
			out.summary = &tr.Summary
			continue
		}
		if out.summary != nil {
			t.Fatalf("result line after the trailer:\n%s", body)
		}
		var line batchResultLine
		if err := json.Unmarshal([]byte(raw), &line); err != nil {
			t.Fatalf("decoding line %q: %v", raw, err)
		}
		out.lines = append(out.lines, line)
	}
	return out
}

func TestLinkBatchHappyPath(t *testing.T) {
	s, ids := testServer(t, Options{})
	body := strings.Join([]string{
		`{"id": "a", "mention": "Wei Wang", "text": "Wei Wang works on data at SIGMOD with Richard R. Muntz"}`,
		``, // blank lines are skipped, not answered
		`{"id": "b", "mention": "Wei Wang", "text": "Wei Wang studies neural methods at NIPS"}`,
		`{"mention": "Richard R. Muntz", "text": "systems work"}`,
	}, "\n")
	w := postJSON(t, s, "/v1/link/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	got := decodeBatch(t, w.Body.String())
	if len(got.lines) != 3 {
		t.Fatalf("got %d result lines, want 3:\n%s", len(got.lines), w.Body.String())
	}
	for i, line := range got.lines {
		if line.Seq != i {
			t.Errorf("line %d carries seq %d; results must be in input order", i, line.Seq)
		}
		if line.Error != "" {
			t.Errorf("line %d failed: %s", i, line.Error)
		}
		if line.Entity == nil || line.Posterior <= 0 {
			t.Errorf("line %d incomplete: %+v", i, line)
		}
	}
	if got.lines[0].ID != "a" || got.lines[1].ID != "b" || got.lines[2].ID != "" {
		t.Errorf("caller ids not echoed: %+v", got.lines)
	}
	wantEntities := []int32{int32(ids["w1"]), int32(ids["w2"]), int32(ids["muntz"])}
	for i, want := range wantEntities {
		if got.lines[i].Entity != nil && *got.lines[i].Entity != want {
			t.Errorf("line %d linked to %d (%s), want %d", i, *got.lines[i].Entity, got.lines[i].Name, want)
		}
	}
	if got.summary == nil {
		t.Fatal("summary trailer missing")
	}
	if got.summary.Docs != 3 || got.summary.Failures != 0 {
		t.Errorf("summary = %+v, want 3 docs, 0 failures", got.summary)
	}
	if got.summary.Seconds <= 0 {
		t.Errorf("summary wall time = %v", got.summary.Seconds)
	}
	// The stream metrics flow through the server registry.
	if docs := s.Metrics().Counter(shine.MetricStreamDocs).Value(); docs != 3 {
		t.Errorf("%s = %d, want 3", shine.MetricStreamDocs, docs)
	}
	if inflight := s.Metrics().Gauge(shine.MetricStreamInFlight).Value(); inflight != 0 {
		t.Errorf("%s = %v after completion, want 0", shine.MetricStreamInFlight, inflight)
	}
}

func TestLinkBatchPerLineErrors(t *testing.T) {
	s, _ := testServer(t, Options{})
	body := strings.Join([]string{
		`{"mention": "Wei Wang", "text": "data at SIGMOD"}`,
		`{not json at all`,
		`{"text": "mention missing"}`,
		`{"mention": "Nobody Known", "text": "x"}`,
		`{"mention": "Wei Wang", "text": "neural at NIPS"}`,
	}, "\n")
	w := postJSON(t, s, "/v1/link/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	got := decodeBatch(t, w.Body.String())
	if len(got.lines) != 5 {
		t.Fatalf("got %d result lines, want 5:\n%s", len(got.lines), w.Body.String())
	}
	wantErr := []bool{false, true, true, true, false}
	for i, line := range got.lines {
		if line.Seq != i {
			t.Errorf("line %d carries seq %d", i, line.Seq)
		}
		if (line.Error != "") != wantErr[i] {
			t.Errorf("line %d error = %q, want error=%v", i, line.Error, wantErr[i])
		}
	}
	if !strings.Contains(got.lines[1].Error, "invalid JSON") {
		t.Errorf("parse failure reads %q", got.lines[1].Error)
	}
	if !strings.Contains(got.lines[2].Error, "mention is required") {
		t.Errorf("missing-mention failure reads %q", got.lines[2].Error)
	}
	if got.summary == nil || got.summary.Docs != 5 || got.summary.Failures != 3 {
		t.Errorf("summary = %+v, want 5 docs, 3 failures", got.summary)
	}
}

func TestLinkBatchOversizedFirstLine(t *testing.T) {
	s, _ := testServer(t, Options{MaxLineBytes: 128})
	body := `{"mention": "Wei Wang", "text": "` + strings.Repeat("x", 1024) + `"}`
	w := postJSON(t, s, "/v1/link/batch", body)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized first line: status %d, want 413: %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "128") {
		t.Errorf("413 body should name the limit: %s", w.Body.String())
	}
}

func TestLinkBatchOversizedMidStreamResyncs(t *testing.T) {
	s, _ := testServer(t, Options{MaxLineBytes: 256})
	body := strings.Join([]string{
		`{"mention": "Wei Wang", "text": "data at SIGMOD"}`,
		`{"mention": "Wei Wang", "text": "` + strings.Repeat("x", 2048) + `"}`,
		`{"mention": "Wei Wang", "text": "neural at NIPS"}`,
	}, "\n")
	w := postJSON(t, s, "/v1/link/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	got := decodeBatch(t, w.Body.String())
	if len(got.lines) != 3 {
		t.Fatalf("got %d result lines, want 3 (stream must resync past the oversized line):\n%s",
			len(got.lines), w.Body.String())
	}
	if got.lines[0].Error != "" || got.lines[2].Error != "" {
		t.Errorf("good lines around the oversized one failed: %+v", got.lines)
	}
	if !strings.Contains(got.lines[1].Error, "exceeds 256 bytes") {
		t.Errorf("oversized line error reads %q", got.lines[1].Error)
	}
	if got.summary == nil || got.summary.Docs != 3 || got.summary.Failures != 1 {
		t.Errorf("summary = %+v, want 3 docs, 1 failure", got.summary)
	}
}

func TestLinkBatchEmptyBody(t *testing.T) {
	s, _ := testServer(t, Options{})
	for _, body := range []string{"", "\n\n"} {
		w := postJSON(t, s, "/v1/link/batch", body)
		if body == "" {
			if w.Code != http.StatusBadRequest {
				t.Errorf("empty body: status %d, want 400", w.Code)
			}
			continue
		}
		// Blank-only bodies commit a 200 (the first readable line is
		// blank, skipped after the status) and answer with a bare
		// zero-doc trailer.
		if w.Code != http.StatusBadRequest && w.Code != http.StatusOK {
			t.Errorf("blank body: status %d", w.Code)
		}
	}
}

func TestLinkBatchClientGoneBeforeStart(t *testing.T) {
	s, _ := testServer(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body := `{"mention": "Wei Wang", "text": "data at SIGMOD"}` + "\n"
	req := httptest.NewRequest(http.MethodPost, "/v1/link/batch", strings.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != StatusClientClosedRequest {
		t.Fatalf("canceled client: status %d, want %d: %s", w.Code, StatusClientClosedRequest, w.Body.String())
	}
	if got := s.Metrics().Counter(MetricRequestsCanceled).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricRequestsCanceled, got)
	}
}

// cancelAfterWriter simulates a client that disconnects mid-stream:
// after n successful writes it cancels the request context, as the
// net/http server does when the peer goes away.
type cancelAfterWriter struct {
	*httptest.ResponseRecorder
	n      int
	cancel context.CancelFunc
}

func (cw *cancelAfterWriter) Write(p []byte) (int, error) {
	if cw.n--; cw.n == 0 {
		cw.cancel()
	}
	return cw.ResponseRecorder.Write(p)
}

func TestLinkBatchClientDisconnectMidStream(t *testing.T) {
	s, _ := testServer(t, Options{})
	var lines []string
	for i := 0; i < 50; i++ {
		lines = append(lines, `{"mention": "Wei Wang", "text": "data at SIGMOD"}`)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/link/batch",
		strings.NewReader(strings.Join(lines, "\n"))).WithContext(ctx)
	cw := &cancelAfterWriter{ResponseRecorder: httptest.NewRecorder(), n: 3, cancel: cancel}
	s.ServeHTTP(cw, req)

	// The pipeline stopped: the response carries no trailer (the
	// cut-stream signal) and the cancellation was counted.
	if strings.Contains(cw.Body.String(), `"summary"`) {
		t.Errorf("canceled batch still produced a trailer:\n%s", cw.Body.String())
	}
	got := decodeBatch(t, cw.Body.String())
	if len(got.lines) >= 50 {
		t.Errorf("all %d lines answered despite mid-stream disconnect", len(got.lines))
	}
	if c := s.Metrics().Counter(MetricRequestsCanceled).Value(); c != 1 {
		t.Errorf("%s = %d, want 1", MetricRequestsCanceled, c)
	}
	if inflight := s.Metrics().Gauge(shine.MetricStreamInFlight).Value(); inflight != 0 {
		t.Errorf("%s = %v after disconnect, want 0", shine.MetricStreamInFlight, inflight)
	}
}

func TestLinkBatchMethodNotAllowed(t *testing.T) {
	s, _ := testServer(t, Options{})
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/link/batch", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET on batch: status %d", w.Code)
	}
}

// FuzzNDJSONLine holds parseBatchLine to its contract: any input
// yields a usable request or an error, never a panic, and a nil error
// implies a non-empty mention.
func FuzzNDJSONLine(f *testing.F) {
	f.Add([]byte(`{"id": "a", "mention": "Wei Wang", "text": "data"}`))
	f.Add([]byte(`{"mention": ""}`))
	f.Add([]byte(`{not json`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"mention": "x"} {"mention": "y"}`))
	f.Add([]byte(`{"unknown": 1, "mention": "x"}`))
	f.Add([]byte("{\"mention\": \"\xff\xfe\"}"))
	f.Fuzz(func(t *testing.T, line []byte) {
		req, err := parseBatchLine(line)
		if err == nil && req.Mention == "" {
			t.Fatalf("accepted %q with empty mention", line)
		}
		if err != nil && strings.Contains(err.Error(), "\n") {
			t.Fatalf("multi-line error %q breaks NDJSON framing", err)
		}
	})
}
