package metapath

import (
	"context"
	"slices"
	"sync/atomic"
	"testing"
)

// countdownCtx is a context whose Err() starts returning
// context.Canceled after a fixed number of calls — a deterministic
// way to cancel "mid-walk" at an exact checkpoint.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func newCountdownCtx(calls int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.remaining.Store(calls)
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestWalkContextPreCanceled(t *testing.T) {
	d, g, ids := paperExample(t)
	w := NewWalker(g, 16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := w.Walk(ctx, ids["wei"], MustParse(d.Schema, "A-P-V"), 0)
	if err != context.Canceled {
		t.Fatalf("Walk on canceled ctx: err = %v, want context.Canceled", err)
	}
	st := w.WalkStats()
	if st.Completed != 0 || st.Hops != 0 {
		t.Errorf("pre-canceled walk did work: %+v", st)
	}
	if st.Canceled != 1 {
		t.Errorf("Canceled = %d, want 1", st.Canceled)
	}
}

// TestWalkContextMidWalkCancel cancels between the two hops of A-P-V:
// the walk must abort after the first hop, complete zero walks, and
// store nothing in the cache.
func TestWalkContextMidWalkCancel(t *testing.T) {
	d, g, ids := paperExample(t)
	w := NewWalker(g, 16)
	apv := MustParse(d.Schema, "A-P-V")
	// Err() is consulted once at Walk entry and once
	// before each of the two hops; budget 2 calls so the second hop's
	// check fails.
	ctx := newCountdownCtx(2)
	if _, err := w.Walk(ctx, ids["wei"], apv, 0); err != context.Canceled {
		t.Fatalf("mid-walk cancel: err = %v, want context.Canceled", err)
	}
	st := w.WalkStats()
	if st.Completed != 0 {
		t.Errorf("Completed = %d, want 0 (walk was canceled)", st.Completed)
	}
	if st.Hops != 1 {
		t.Errorf("Hops = %d, want 1 (canceled before the second hop)", st.Hops)
	}
	if st.Canceled != 1 {
		t.Errorf("Canceled = %d, want 1", st.Canceled)
	}

	// The partial walk must not have been cached: a fresh walk on a
	// live context recomputes from scratch and reports a cache miss.
	dist, err := w.Walk(context.Background(), ids["wei"], apv, 0)
	if err != nil {
		t.Fatalf("Walk after canceled walk: %v", err)
	}
	if got := dist.Get(int32(ids["sigmod"])); got != 0.75 {
		t.Errorf("P(SIGMOD) after canceled walk = %v, want 0.75", got)
	}
	if cs := w.CacheStats(); cs.Hits != 0 {
		t.Errorf("cache hits = %d, want 0 (canceled walk must not populate the cache)", cs.Hits)
	}
	if st := w.WalkStats(); st.Completed != 1 || st.Hops != 3 {
		t.Errorf("after recompute: %+v, want Completed=1 Hops=3", st)
	}
}

func TestWalkMixtureDistContextCancel(t *testing.T) {
	d, g, ids := paperExample(t)
	w := NewWalker(g, 16)
	paths := []Path{MustParse(d.Schema, "A-P-V"), MustParse(d.Schema, "A-P-A")}
	weights := []float64{0.5, 0.5}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.WalkMixtureDistContext(ctx, ids["wei"], paths, weights, 0); err != context.Canceled {
		t.Fatalf("mixture on canceled ctx: err = %v, want context.Canceled", err)
	}
	if st := w.WalkStats(); st.Completed != 0 {
		t.Errorf("Completed = %d, want 0", st.Completed)
	}
}

// TestWalkContextMatchesWalk: threading a live, cancelable context
// changes nothing about the result — same Dist, bit for bit, as a walk
// under context.Background.
func TestWalkContextMatchesWalk(t *testing.T) {
	d, g, ids := paperExample(t)
	apv := MustParse(d.Schema, "A-P-V")
	plain := NewWalker(g, 16)
	want, err := plain.Walk(context.Background(), ids["wei"], apv, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctxed := NewWalker(g, 16)
	got, err := ctxed.Walk(ctx, ids["wei"], apv, 0)
	if err != nil {
		t.Fatal(err)
	}
	wi, wv := want.Raw()
	gi, gv := got.Raw()
	if !slices.Equal(wi, gi) || !slices.Equal(wv, gv) {
		t.Fatalf("walk under a live context = %v, want %v", got, want)
	}
}
