package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

const linkBody = `{"mention": "Wei Wang", "text": "Wei Wang works on data at SIGMOD with Richard R. Muntz"}`

func TestRequestTimeout(t *testing.T) {
	// A deadline of 1ns has always expired by the time the handler
	// reaches the model, so the request deterministically times out.
	s, _ := testServer(t, Options{RequestTimeout: time.Nanosecond})
	w := postJSON(t, s, "/v1/link", linkBody)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("timed-out request: status %d, want 503: %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "timed out") {
		t.Errorf("503 body should mention the timeout: %s", w.Body.String())
	}
	if got := s.Metrics().Counter(MetricRequestsCanceled).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricRequestsCanceled, got)
	}
}

func TestClientDisconnect(t *testing.T) {
	s, _ := testServer(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/link", strings.NewReader(linkBody)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != StatusClientClosedRequest {
		t.Fatalf("canceled client: status %d, want %d: %s", w.Code, StatusClientClosedRequest, w.Body.String())
	}
	if got := s.Metrics().Counter(MetricRequestsCanceled).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricRequestsCanceled, got)
	}
}

func TestNegativeTimeoutRejected(t *testing.T) {
	m, cfg, _ := testModel(t)
	if _, err := New(m, cfg, Options{RequestTimeout: -time.Second}); err == nil {
		t.Error("negative RequestTimeout accepted")
	}
}

func TestPanicRecovery(t *testing.T) {
	s, _ := testServer(t, Options{})
	s.route(http.MethodGet, "/v1/panictest", func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	})
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/panictest", nil))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", w.Code)
	}
	if !strings.Contains(w.Body.String(), "internal server error") {
		t.Errorf("500 body = %s", w.Body.String())
	}
	if got := s.Metrics().Counter(MetricPanics).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricPanics, got)
	}
	// The server survives: the next request works.
	if w := postJSON(t, s, "/v1/link", linkBody); w.Code != http.StatusOK {
		t.Errorf("request after panic: status %d, want 200", w.Code)
	}
}

func TestPanicAfterHeadersStaysSilent(t *testing.T) {
	s, _ := testServer(t, Options{})
	s.route(http.MethodGet, "/v1/paniclate", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("partial"))
		panic("late boom")
	})
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/paniclate", nil))
	// The 200 is already on the wire; recovery must not stomp a second
	// status over the partial body.
	if w.Code != http.StatusOK {
		t.Errorf("late panic: recorded status %d, want the original 200", w.Code)
	}
	if got := s.Metrics().Counter(MetricPanics).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricPanics, got)
	}
}

func TestLoadShedding(t *testing.T) {
	s, _ := testServer(t, Options{MaxInFlight: 1, MaxQueued: -1, RequestTimeout: 30 * time.Second})
	started := make(chan struct{})
	release := make(chan struct{})
	s.route(http.MethodGet, "/v1/slowtest", s.guard(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		s.writeJSON(w, struct{}{})
	}))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/slowtest", nil))
	}()
	<-started

	// The slot is held and there is no queue: the next request sheds.
	w := postJSON(t, s, "/v1/link", linkBody)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("request over capacity: status %d, want 429: %s", w.Code, w.Body.String())
	}
	if ra := w.Header().Get("Retry-After"); ra != "30" {
		t.Errorf("Retry-After = %q, want %q", ra, "30")
	}
	if got := s.Metrics().Counter(MetricRequestsShed).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricRequestsShed, got)
	}
	if got := s.Metrics().Gauge(MetricRequestsInFlight).Value(); got != 1 {
		t.Errorf("%s = %v, want 1", MetricRequestsInFlight, got)
	}

	close(release)
	wg.Wait()
	if got := s.Metrics().Gauge(MetricRequestsInFlight).Value(); got != 0 {
		t.Errorf("%s after release = %v, want 0", MetricRequestsInFlight, got)
	}

	// With the slot free again, requests flow.
	if w := postJSON(t, s, "/v1/link", linkBody); w.Code != http.StatusOK {
		t.Errorf("request after release: status %d, want 200", w.Code)
	}
}

func TestQueuedRequestProceeds(t *testing.T) {
	// MaxQueued defaults to MaxInFlight (1), so a second request waits
	// instead of shedding and completes once the slot frees.
	s, _ := testServer(t, Options{MaxInFlight: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	s.route(http.MethodGet, "/v1/slowtest", s.guard(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		s.writeJSON(w, struct{}{})
	}))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/slowtest", nil))
	}()
	<-started

	done := make(chan int, 1)
	go func() {
		w := postJSON(t, s, "/v1/link", linkBody)
		done <- w.Code
	}()
	// The queued request must not have been answered yet.
	select {
	case code := <-done:
		t.Fatalf("queued request answered %d before the slot freed", code)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if code := <-done; code != http.StatusOK {
		t.Errorf("queued request: status %d, want 200", code)
	}
	wg.Wait()
}

func TestReadyz(t *testing.T) {
	s, _ := testServer(t, Options{})
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/readyz", nil))
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"ready"`) {
		t.Errorf("readyz = %d %s, want 200 ready", w.Code, w.Body.String())
	}
	if got := s.Metrics().Gauge(MetricReady).Value(); got != 1 {
		t.Errorf("%s = %v, want 1", MetricReady, got)
	}

	s.SetReady(false)
	w = httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/readyz", nil))
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), `"unavailable"`) {
		t.Errorf("readyz after SetReady(false) = %d %s, want 503 unavailable", w.Code, w.Body.String())
	}
	if got := s.Metrics().Gauge(MetricReady).Value(); got != 0 {
		t.Errorf("%s = %v, want 0", MetricReady, got)
	}

	// Liveness is independent of readiness.
	w = httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if w.Code != http.StatusOK {
		t.Errorf("healthz while not ready = %d, want 200", w.Code)
	}

	s.SetReady(true)
	w = httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/readyz", nil))
	if w.Code != http.StatusOK {
		t.Errorf("readyz after SetReady(true) = %d, want 200", w.Code)
	}
}

func TestEntityIDParsing(t *testing.T) {
	s, ids := testServer(t, Options{})
	cases := []struct {
		id   string
		want int
	}{
		{"", http.StatusBadRequest},
		{"12abc", http.StatusBadRequest},                // Sscanf used to accept this as 12
		{"99999999999999999999", http.StatusBadRequest}, // overflows int32
		{"4294967297", http.StatusBadRequest},           // wraps to 1 under a naive cast
		{"-1", http.StatusNotFound},
		{"1000000", http.StatusNotFound},
	}
	for _, tc := range cases {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/entity?id="+tc.id, nil))
		if w.Code != tc.want {
			t.Errorf("id=%q: status %d, want %d", tc.id, w.Code, tc.want)
		}
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet,
		"/v1/entity?id="+strconv.Itoa(int(ids["w1"])), nil))
	if w.Code != http.StatusOK {
		t.Errorf("valid id: status %d, want 200: %s", w.Code, w.Body.String())
	}
}

func TestUniqueRequestIDs(t *testing.T) {
	s, _ := testServer(t, Options{})
	a, b := s.nextRequestID(), s.nextRequestID()
	if a == b {
		t.Errorf("nextRequestID returned %q twice", a)
	}
}
