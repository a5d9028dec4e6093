package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"shine/internal/snapshot"
)

// writeTestSnapshot persists the two-Wangs model as an artifact and
// returns its path and info.
func writeTestSnapshot(t testing.TB) (string, snapshot.Info) {
	t.Helper()
	m, _, _ := testModel(t)
	if err := m.PrecomputeMixtures(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.snap")
	info, err := snapshot.WriteFile(path, m.Parts())
	if err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path, info
}

func TestReloadSwapsServing(t *testing.T) {
	path, info := writeTestSnapshot(t)
	s, _ := testServer(t, Options{SnapshotPath: path, FuzzyDistance: 1})

	w := postJSON(t, s, "/v1/admin/reload", "")
	if w.Code != http.StatusOK {
		t.Fatalf("reload: status %d: %s", w.Code, w.Body.String())
	}
	var resp struct {
		Status   string        `json:"status"`
		Snapshot snapshot.Info `json:"snapshot"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding reload response: %v", err)
	}
	if resp.Status != "reloaded" || resp.Snapshot.Checksum != info.Checksum {
		t.Errorf("reload response %+v, want checksum %s", resp, info.Checksum)
	}

	// The artifact carries no fuzzy distance; the swap keeps -fuzzy.
	if got := s.serving.Load().model.FuzzyDistance(); got != 1 {
		t.Errorf("fuzzy distance after reload = %d, want 1", got)
	}

	// The swapped-in generation serves requests.
	if w := postJSON(t, s, "/v1/link",
		`{"mention": "Wei Wang", "text": "data at SIGMOD with Richard R. Muntz"}`); w.Code != http.StatusOK {
		t.Errorf("link after reload: status %d: %s", w.Code, w.Body.String())
	}

	// healthz reports the new generation's artifact identity.
	req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	hw := httptest.NewRecorder()
	s.ServeHTTP(hw, req)
	var health struct {
		Snapshot *snapshot.Info `json:"snapshot"`
	}
	if err := json.Unmarshal(hw.Body.Bytes(), &health); err != nil {
		t.Fatalf("decoding healthz: %v", err)
	}
	if health.Snapshot == nil || health.Snapshot.Checksum != info.Checksum {
		t.Errorf("healthz snapshot = %+v, want checksum %s", health.Snapshot, info.Checksum)
	}

	if got := s.snap.swaps.Value(); got != 1 {
		t.Errorf("swap counter = %v, want 1", got)
	}
	if s.snap.loadSeconds.Value() <= 0 {
		t.Error("load seconds gauge not set")
	}
	if got := s.snap.bytes.Value(); got != float64(info.Bytes) {
		t.Errorf("bytes gauge = %v, want %d", got, info.Bytes)
	}

	// The old generation's collectors must be gone: each model metric
	// name appears at most once in the exposition.
	mw := httptest.NewRecorder()
	s.ServeHTTP(mw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := mw.Body.String()
	for _, name := range []string{"shine_mixture_entries", "shine_link_total"} {
		if n := strings.Count(body, "\n"+name+" "); n > 1 {
			t.Errorf("metric %s exposed %d times after swap — stale collectors", name, n)
		}
	}
}

// TestReloadUnderLoad is the zero-downtime acceptance check: repeated
// hot swaps while /v1/link traffic is in flight must never produce a
// swap-attributable 5xx.
func TestReloadUnderLoad(t *testing.T) {
	path, _ := writeTestSnapshot(t)
	s, _ := testServer(t, Options{SnapshotPath: path})

	const workers = 8
	stop := make(chan struct{})
	type badResp struct {
		code int
		body string
	}
	bad := make(chan badResp, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := postJSON(t, s, "/v1/link",
					`{"mention": "Wei Wang", "text": "neural work at NIPS"}`)
				if w.Code >= 500 {
					select {
					case bad <- badResp{w.Code, w.Body.String()}:
					default:
					}
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if _, err := s.Reload(); err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case b := <-bad:
		t.Fatalf("5xx during hot swap: %d %s", b.code, b.body)
	default:
	}
	if got := s.snap.swaps.Value(); got != 20 {
		t.Errorf("swap counter = %v, want 20", got)
	}
}

// TestReloadFailureLeavesOldServing corrupts the artifact and checks
// the failed swap is observable while the old generation keeps
// serving.
func TestReloadFailureLeavesOldServing(t *testing.T) {
	path, _ := writeTestSnapshot(t)
	s, _ := testServer(t, Options{SnapshotPath: path})

	if err := os.WriteFile(path, []byte("SHINESNP garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	w := postJSON(t, s, "/v1/admin/reload", "")
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("corrupt reload: status %d: %s", w.Code, w.Body.String())
	}
	if got := s.snap.failures.Value(); got != 1 {
		t.Errorf("failure counter = %v, want 1", got)
	}
	if got := s.snap.swaps.Value(); got != 0 {
		t.Errorf("swap counter = %v, want 0", got)
	}
	// Old generation still serves, and the server still reports ready.
	if w := postJSON(t, s, "/v1/link",
		`{"mention": "Wei Wang", "text": "data at SIGMOD"}`); w.Code != http.StatusOK {
		t.Errorf("link after failed reload: status %d: %s", w.Code, w.Body.String())
	}
	rw := httptest.NewRecorder()
	s.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/v1/readyz", nil))
	if rw.Code != http.StatusOK {
		t.Errorf("readyz after failed reload: status %d", rw.Code)
	}
}

func TestReloadWithoutPath(t *testing.T) {
	s, _ := testServer(t, Options{})
	w := postJSON(t, s, "/v1/admin/reload", "")
	if w.Code != http.StatusInternalServerError {
		t.Errorf("reload with no path: status %d: %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "no snapshot path") {
		t.Errorf("reload error body %q", w.Body.String())
	}
}

func TestReloadConflict(t *testing.T) {
	path, _ := writeTestSnapshot(t)
	s, _ := testServer(t, Options{SnapshotPath: path})
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	w := postJSON(t, s, "/v1/admin/reload", "")
	if w.Code != http.StatusConflict {
		t.Errorf("concurrent reload: status %d: %s", w.Code, w.Body.String())
	}
}
