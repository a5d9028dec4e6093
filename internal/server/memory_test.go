package server

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"testing"
	"time"

	"shine/internal/shine"
)

// heapGoal reads the heap size at which the GC will next collect.
func heapGoal() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// inflateHeapGoal leaves the GC goal where a load peak leaves it: a
// 64 MiB buffer stays live across a collection, which sets the goal to
// twice that, and is then dropped. Nothing collects again until the
// heap grows to the goal.
func inflateHeapGoal(t *testing.T) {
	t.Helper()
	buf := make([]byte, 64<<20)
	runtime.GC()
	runtime.KeepAlive(buf)
	if g := heapGoal(); g < 128<<20 {
		t.Fatalf("heap goal %d MiB with 64 MiB live, want at least 128 MiB", g>>20)
	}
}

// TestInstallResetsHeapGoal: every way a generation starts serving —
// New, Reload and Update — collects once it is installed, so the GC
// goal follows the live model rather than the garbage of the load
// that preceded it.
func TestInstallResetsHeapGoal(t *testing.T) {
	// The goal is twice the live heap only at the default GOGC and
	// with no memory limit, whatever the environment set.
	defer debug.SetGCPercent(debug.SetGCPercent(100))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(math.MaxInt64))
	path, _ := writeTestSnapshot(t)
	m, cfg, _ := testModel(t)
	var s *Server
	steps := []struct {
		name    string
		install func() error
	}{
		{"New", func() (err error) {
			s, err = New(m, cfg, Options{SnapshotPath: path})
			return err
		}},
		{"Reload", func() error {
			_, err := s.Reload()
			return err
		}},
		{"Update", func() error {
			_, err := s.Update(strings.NewReader(deltaBatch("goal-p0")))
			return err
		}},
	}
	for _, st := range steps {
		inflateHeapGoal(t)
		if err := st.install(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if g := heapGoal(); g >= 64<<20 {
			t.Errorf("%s: heap goal %d MiB after the install, want under 64 MiB", st.name, g>>20)
		}
	}
}

// TestSwappedGenerationReleased bounds the memory a swap retains: the
// outgoing generation's model lives exactly as long as a request that
// loaded it. A /v1/link/batch stream loads its generation once and
// holds it until its body ends, so it is the request held open here.
func TestSwappedGenerationReleased(t *testing.T) {
	path, _ := writeTestSnapshot(t)
	swaps := []struct {
		name string
		swap func(*Server) error
	}{
		{"reload", func(s *Server) error {
			_, err := s.Reload()
			return err
		}},
		{"update", func(s *Server) error {
			_, err := s.Update(strings.NewReader(deltaBatch("released-p0")))
			return err
		}},
	}
	for _, tc := range swaps {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := testServer(t, Options{SnapshotPath: path})
			finalized := make(chan struct{})
			runtime.SetFinalizer(s.serving.Load().model, func(*shine.Model) { close(finalized) })
			hs := httptest.NewServer(s)
			defer hs.Close()

			body, feed := io.Pipe()
			defer feed.Close()
			type posted struct {
				resp *http.Response
				err  error
			}
			postc := make(chan posted, 1)
			go func() {
				resp, err := http.Post(hs.URL+"/v1/link/batch", "application/x-ndjson", body)
				postc <- posted{resp, err}
			}()
			if _, err := io.WriteString(feed, `{"mention": "Wei Wang", "text": "data at SIGMOD"}`+"\n"); err != nil {
				t.Fatal(err)
			}
			p := <-postc
			if p.err != nil {
				t.Fatal(p.err)
			}
			resp := p.resp
			defer resp.Body.Close()
			out := bufio.NewReader(resp.Body)
			// The first result line is proof the stream holds its
			// generation: the handler loaded it before linking.
			if line, err := out.ReadString('\n'); err != nil || !strings.Contains(line, `"entity"`) {
				t.Fatalf("first batch line %q: %v", line, err)
			}

			if err := tc.swap(s); err != nil {
				t.Fatal(err)
			}
			if collected(finalized, 3) {
				t.Fatal("the old generation's model was freed while a request still held it")
			}

			feed.Close()
			if _, err := io.Copy(io.Discard, out); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if !collected(finalized, 10) {
				t.Error("the old generation's model is still reachable after its last request ended")
			}
		})
	}
}

// collected runs up to rounds collections, reporting whether done
// closes, as a finalizer does once its object is unreachable.
func collected(done <-chan struct{}, rounds int) bool {
	for i := 0; i < rounds; i++ {
		runtime.GC()
		select {
		case <-done:
			return true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}
