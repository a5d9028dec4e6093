package annotate

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"shine/internal/corpus"
	"shine/internal/hin"
	"shine/internal/shine"
)

// TestAnnotateContextPreCanceled: a canceled request aborts before
// the first detected mention is linked.
func TestAnnotateContextPreCanceled(t *testing.T) {
	d, _, _, m := annotateFixture(t)
	a, err := New(m, corpus.DBLPIngestConfig(d), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	anns, err := a.AnnotateContext(ctx, "doc", "Wei Wang presented data at SIGMOD with Richard R. Muntz")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("AnnotateContext(canceled) err = %v, want context.Canceled", err)
	}
	if anns != nil {
		t.Errorf("canceled annotate returned %d annotations, want none", len(anns))
	}
}

// TestAnnotateContextBackgroundMatchesAnnotate: the context variant
// is a pure pass-through under a live context.
func TestAnnotateContextBackgroundMatchesAnnotate(t *testing.T) {
	d, _, _, m := annotateFixture(t)
	a, err := New(m, corpus.DBLPIngestConfig(d), Options{})
	if err != nil {
		t.Fatal(err)
	}
	text := "Wei Wang presented data at SIGMOD with Richard R. Muntz"
	plain, err := a.Annotate("doc", text)
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := a.AnnotateContext(context.Background(), "doc", text)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(ctxed) {
		t.Fatalf("annotation count: %d vs %d", len(plain), len(ctxed))
	}
	for i := range plain {
		if plain[i] != ctxed[i] {
			t.Errorf("annotation %d: %+v vs %+v", i, plain[i], ctxed[i])
		}
	}
}

// countdownCtx is a cancelable context whose Err() cancels it on the
// call after the first n: a deterministic cancellation point. The
// annotator polls the request context once before linking and once as
// each linked surface leaves the stream, so n = 1+K cancels it after K
// links.
type countdownCtx struct {
	context.Context
	cancel    context.CancelFunc
	remaining atomic.Int64
}

func newCountdownCtx(n int64) *countdownCtx {
	ctx, cancel := context.WithCancel(context.Background())
	c := &countdownCtx{Context: ctx, cancel: cancel}
	c.remaining.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// goroutinesSettle waits for the running goroutine count to fall back
// to base, reporting whether it did.
func goroutinesSettle(base int) bool {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// repeatedPage is a text with n detected mentions but two distinct
// surfaces: Muntz first, then the Wangs.
func repeatedPage(n int) string {
	var b strings.Builder
	b.WriteString("Richard R. Muntz works on data at SIGMOD.")
	for i := 1; i < n; i++ {
		b.WriteString(" Wei Wang presented data at SIGMOD.")
	}
	return b.String()
}

// distinctPage is a text with n detected mentions, each of a distinct
// surface: Muntz first, then n-1 of the fixture's crowd.
func distinctPage(t testing.TB, n int) string {
	t.Helper()
	if n-1 > crowdSize {
		t.Fatalf("distinctPage(%d): the fixture names only %d crowd authors", n, crowdSize)
	}
	var b strings.Builder
	b.WriteString("Richard R. Muntz works on data at SIGMOD.")
	for i := 0; i < n-1; i++ {
		b.WriteString(" " + crowdName(i) + " presented data at SIGMOD.")
	}
	return b.String()
}

// TestAnnotateContextCancelAfterK: a request canceled after K of a
// page's distinct surfaces are linked returns context.Canceled and no
// annotations, and leaves no pipeline goroutine behind.
func TestAnnotateContextCancelAfterK(t *testing.T) {
	d, _, _, m := annotateFixture(t)
	a, err := New(m, corpus.DBLPIngestConfig(d), Options{})
	if err != nil {
		t.Fatal(err)
	}
	text := distinctPage(t, 40)
	for _, k := range []int64{0, 1, 5, 39} {
		base := runtime.NumGoroutine()
		ctx := newCountdownCtx(1 + k)
		anns, err := a.AnnotateContext(ctx, "page", text)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("K=%d: err = %v, want context.Canceled", k, err)
		}
		if anns != nil {
			t.Errorf("K=%d: canceled annotate returned %d annotations, want none", k, len(anns))
		}
		if !goroutinesSettle(base) {
			t.Errorf("K=%d: goroutines leaked: %d running, started from %d", k, runtime.NumGoroutine(), base)
		}
	}
	// One poll more than the page has surfaces: the countdown never
	// fires and the page annotates in full.
	anns, err := a.AnnotateContext(newCountdownCtx(1+40+1), "page", text)
	if err != nil || len(anns) != 40 {
		t.Fatalf("uncanceled countdown: %d annotations, err %v; want 40, nil", len(anns), err)
	}
}

// failingSource fails candidate lookup for one surface form, the way
// a mention with no entity would fail, and counts every lookup.
type failingSource struct {
	shine.CandidateSource
	fail    string
	lookups atomic.Int64
}

func (s *failingSource) Candidates(mention string) []hin.ObjectID {
	s.lookups.Add(1)
	if mention == s.fail {
		return nil
	}
	return s.CandidateSource.Candidates(mention)
}

// TestAnnotateContextLinkErrorStopsStream: the first surface that
// fails to link surfaces its error, wrapped with the surface, and
// cancels the stream before the rest of the page is linked.
func TestAnnotateContextLinkErrorStopsStream(t *testing.T) {
	d, _, _, m := annotateFixture(t)
	src := &failingSource{CandidateSource: m.CandidateSource(), fail: "Richard R. Muntz"}
	m.SetCandidateSource(src)
	a, err := New(m, corpus.DBLPIngestConfig(d), Options{})
	if err != nil {
		t.Fatal(err)
	}
	const surfaces = crowdSize + 1
	base := runtime.NumGoroutine()
	anns, err := a.AnnotateContext(context.Background(), "page", distinctPage(t, surfaces))
	if !errors.Is(err, shine.ErrNoCandidates) || !strings.Contains(err.Error(), `"Richard R. Muntz"`) {
		t.Fatalf("err = %v, want ErrNoCandidates naming the mention", err)
	}
	if anns != nil {
		t.Errorf("failed annotate returned %d annotations, want none", len(anns))
	}
	// The stream's window is 2×workers documents; it must not have
	// run on through the page.
	if n := src.lookups.Load(); n >= surfaces {
		t.Errorf("%d of %d distinct surfaces looked up after the first failed", n, surfaces)
	}
	if !goroutinesSettle(base) {
		t.Errorf("goroutines leaked: %d running, started from %d", runtime.NumGoroutine(), base)
	}
}

// TestAnnotateLinksEachSurfaceOnce: a page makes exactly one
// candidate lookup per distinct surface as written, and still returns
// every occurrence in text order, each equal to the serial path's
// per-mention annotation. 2,000 mentions of two surfaces make two
// lookups; three spellings of one name are three surfaces, each
// annotated with its own spelling. The serial path ingests the whole
// page per mention (on a 2-vCPU host ~14 s for 2,000 mentions, ~90 s
// under the race detector), so the race build runs the same checks on
// 200.
func TestAnnotateLinksEachSurfaceOnce(t *testing.T) {
	mentions := 2000
	if raceEnabled {
		mentions = 200
	}
	for _, tc := range []struct {
		name     string
		text     string
		mentions int
		lookups  int64
	}{
		{"repeated", repeatedPage(mentions), mentions, 2},
		{"spellings", "Wei Wang met WEI WANG at SIGMOD; wei wang and Wei Wang mined data.", 4, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, _, _, m := annotateFixture(t)
			src := &failingSource{CandidateSource: m.CandidateSource()}
			m.SetCandidateSource(src)
			a, err := New(m, corpus.DBLPIngestConfig(d), Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := a.AnnotateContext(context.Background(), "page", tc.text)
			if err != nil {
				t.Fatal(err)
			}
			if n := src.lookups.Load(); n != tc.lookups {
				t.Errorf("%d candidate lookups for %d mentions, want %d", n, tc.mentions, tc.lookups)
			}
			want, err := serialAnnotate(a, "page", tc.text)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != tc.mentions || len(want) != tc.mentions {
				t.Fatalf("%d annotations, serial path %d; want %d", len(got), len(want), tc.mentions)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("annotation %d:\n got %+v\nwant %+v", i, got[i], want[i])
				}
			}
		})
	}
}
