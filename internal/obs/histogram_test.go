package obs

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHistogramBucketing(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 100} {
		h.Observe(v)
	}
	// le semantics are inclusive: 1 lands in the first bucket, 2 in
	// the second, 4 in the third, 100 in +Inf.
	counts, total, sum := h.snapshot()
	wantCounts := []uint64{2, 2, 2, 1}
	for i, want := range wantCounts {
		if counts[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, counts[i], want)
		}
	}
	if total != 7 {
		t.Errorf("total = %d, want 7", total)
	}
	if math.Abs(sum-112) > 1e-9 {
		t.Errorf("sum = %v, want 112", sum)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram([]float64{0.01, 0.02, 0.05, 0.1, 0.5, 1})
	// 100 observations spread uniformly over (0, 0.1].
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 1000)
	}
	p50 := h.Quantile(0.50)
	if p50 < 0.02 || p50 > 0.06 {
		t.Errorf("p50 = %v, want ~0.05", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 0.05 || p99 > 0.1 {
		t.Errorf("p99 = %v, want ~0.1", p99)
	}
	if q := h.Quantile(-1); q != h.Quantile(0) {
		t.Errorf("q<0 not clamped: %v", q)
	}
	if n := h.Count(); n != 100 {
		t.Errorf("count = %d, want 100", n)
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	h := newHistogram([]float64{1})
	if q := h.Quantile(0.5); q != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", q)
	}
}

func TestHistogramQuantileInfBucketClamps(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(50)
	h.Observe(60)
	if q := h.Quantile(0.99); q != 2 {
		t.Errorf("overflow quantile = %v, want clamp to 2", q)
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total").Inc()
	srv := r.Handler()

	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(w.Body.String(), "up_total 1") {
		t.Errorf("body = %q", w.Body.String())
	}

	w = httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/metrics", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics = %d, want 405", w.Code)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1e-6, 2, 4)
	want := []float64{1e-6, 2e-6, 4e-6, 8e-6}
	if len(got) != len(want) {
		t.Fatalf("ExpBuckets = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-18 {
			t.Errorf("bound %d = %v, want %v", i, got[i], want[i])
		}
	}
	// The bounds are a valid histogram layout.
	h := newHistogram(got)
	h.Observe(3e-6)
	if c, _, _ := h.snapshot(); c[2] != 1 {
		t.Errorf("3µs landed in buckets %v, want the (2µs, 4µs] bucket", c)
	}
	for _, bad := range []struct {
		start, factor float64
		n             int
	}{
		{0, 2, 4}, {-1, 2, 4}, {1, 1, 4}, {1, 0.5, 4}, {1, 2, 0}, {math.NaN(), 2, 4}, {1, math.NaN(), 4}, {math.Inf(1), 2, 4},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ExpBuckets(%v, %v, %d) did not panic", bad.start, bad.factor, bad.n)
				}
			}()
			ExpBuckets(bad.start, bad.factor, bad.n)
		}()
	}
}
