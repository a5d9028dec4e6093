package shine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"shine/internal/corpus"
	"shine/internal/hin"
	"shine/internal/metapath"
	"shine/internal/obs"
)

// feedDocs streams a document slice into a channel, closing it when
// done. The channel is unbuffered so tests exercise the dispatcher's
// blocking read path.
func feedDocs(docs []*corpus.Document) <-chan *corpus.Document {
	ch := make(chan *corpus.Document)
	go func() {
		defer close(ch)
		for _, d := range docs {
			ch <- d
		}
	}()
	return ch
}

// collectStream drains a stream into a slice.
func collectStream(out <-chan StreamResult) []StreamResult {
	var got []StreamResult
	for sr := range out {
		got = append(got, sr)
	}
	return got
}

// goroutineSettled waits for the goroutine count to return to at most
// base, tolerating the runtime's brief teardown lag.
func goroutineSettled(base int) bool {
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= base {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// linkAll links every document through LinkStream and returns the
// results in input order.
func linkAll(m *Model, docs []*corpus.Document, workers int) []StreamResult {
	return collectStream(m.LinkStream(context.Background(), feedDocs(docs), workers))
}

// linkEach links every document with one Link call each.
func linkEach(t *testing.T, m *Model, docs []*corpus.Document) []Result {
	t.Helper()
	want := make([]Result, len(docs))
	for i, doc := range docs {
		var err error
		if want[i], err = m.Link(doc); err != nil {
			t.Fatalf("Link doc %d: %v", i, err)
		}
	}
	return want
}

// requireSameResult fails unless got names the same entity as want and
// carries a bit-identical candidate list (entities, posteriors,
// log-joints, order).
func requireSameResult(t *testing.T, where string, got, want Result) {
	t.Helper()
	if got.Entity != want.Entity {
		t.Errorf("%s: entity %d, want %d", where, got.Entity, want.Entity)
	}
	if len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("%s: %d candidates, want %d", where, len(got.Candidates), len(want.Candidates))
	}
	for j, cs := range got.Candidates {
		w := want.Candidates[j]
		if cs.Entity != w.Entity ||
			math.Float64bits(cs.Posterior) != math.Float64bits(w.Posterior) ||
			math.Float64bits(cs.LogJoint) != math.Float64bits(w.LogJoint) {
			t.Errorf("%s cand %d: %+v, want %+v", where, j, cs, w)
		}
	}
}

// requireStreamMatchesLink links docs through LinkStream and fails
// unless the stream emits one result per document in input order, each
// bit-identical to want, Link's result for that document.
func requireStreamMatchesLink(t *testing.T, m *Model, docs []*corpus.Document, want []Result, workers int) {
	t.Helper()
	got := linkAll(m, docs, workers)
	if len(got) != len(docs) {
		t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(docs))
	}
	for i, sr := range got {
		if sr.Seq != i {
			t.Fatalf("workers=%d: result %d has seq %d; stream out of order", workers, i, sr.Seq)
		}
		if sr.Err != nil {
			t.Fatalf("workers=%d doc %d: %v", workers, i, sr.Err)
		}
		if sr.Doc != docs[i] {
			t.Fatalf("workers=%d doc %d: result carries the wrong document", workers, i)
		}
		requireSameResult(t, fmt.Sprintf("workers=%d doc %d", workers, i), sr.Result, want[i])
	}
}

// TestLinkStreamMatchesLink: the acceptance contract — at every
// worker count the stream's result for each document is bit-identical
// to Link called once on that document.
func TestLinkStreamMatchesLink(t *testing.T) {
	ds := integrationDataset(t)
	d := ds.Data.Schema
	m, err := New(ds.Data.Graph, d.Author, metapath.DBLPPaperPaths(d), ds.Corpus, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Learn(ds.Corpus); err != nil {
		t.Fatal(err)
	}
	want := linkEach(t, m, ds.Corpus.Docs)
	for _, workers := range []int{1, 4, 8} {
		requireStreamMatchesLink(t, m, ds.Corpus.Docs, want, workers)
	}
}

// TestLinkStreamMatchesParallel: a stream run by several workers is
// indistinguishable from the one-worker stream, failed and nil
// documents included — same positions, same errors, bit-identical
// results.
func TestLinkStreamMatchesParallel(t *testing.T) {
	ds := integrationDataset(t)
	d := ds.Data.Schema
	m, err := New(ds.Data.Graph, d.Author, metapath.DBLPPaperPaths(d), ds.Corpus, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Learn(ds.Corpus); err != nil {
		t.Fatal(err)
	}
	bad := corpus.NewDocument("bad", "Unknown Person", hin.NoObject, nil)
	docs := append([]*corpus.Document{bad}, ds.Corpus.Docs...)
	mid := len(docs) / 2
	docs = append(docs[:mid], append([]*corpus.Document{nil}, docs[mid:]...)...)
	want := linkAll(m, docs, 1)
	for _, workers := range []int{4, 8} {
		got := linkAll(m, docs, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i, sr := range got {
			where := fmt.Sprintf("workers=%d doc %d", workers, i)
			if sr.Seq != want[i].Seq || sr.Doc != want[i].Doc {
				t.Fatalf("%s: seq %d doc %p, one worker gave seq %d doc %p",
					where, sr.Seq, sr.Doc, want[i].Seq, want[i].Doc)
			}
			if fmt.Sprint(sr.Err) != fmt.Sprint(want[i].Err) {
				t.Errorf("%s: err %v, one worker gave %v", where, sr.Err, want[i].Err)
			}
			requireSameResult(t, where, sr.Result, want[i].Result)
		}
	}
	if want[0].Err == nil || want[mid].Err == nil {
		t.Errorf("failed and nil documents linked without error: %v, %v", want[0].Err, want[mid].Err)
	}
}

// TestLinkStreamDegradedDocsFlowThrough: per-document failures are
// carried in-stream as NIL results, not dropped and not fatal.
func TestLinkStreamDegradedDocsFlowThrough(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, nil)
	bad := corpus.NewDocument("bad", "Unknown Person", hin.NoObject, nil)
	got := collectStream(m.LinkStream(context.Background(),
		feedDocs([]*corpus.Document{f.docA, bad, f.docB}), 2))
	if len(got) != 3 {
		t.Fatalf("%d results, want 3", len(got))
	}
	if got[1].Err == nil || !errors.Is(got[1].Err, ErrNoCandidates) {
		t.Errorf("degraded doc err = %v, want ErrNoCandidates", got[1].Err)
	}
	if got[1].Result.Entity != hin.NoObject {
		t.Errorf("degraded doc entity = %d, want NoObject", got[1].Result.Entity)
	}
	if got[0].Err != nil || got[2].Err != nil {
		t.Errorf("healthy documents failed in a degraded stream: %v, %v", got[0].Err, got[2].Err)
	}
}

// TestLinkStreamNilDocument: a nil input flows through in position
// with ErrNilDocument — the hook the NDJSON batch endpoint uses to
// keep per-line error records aligned with input lines.
func TestLinkStreamNilDocument(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, nil)
	got := collectStream(m.LinkStream(context.Background(),
		feedDocs([]*corpus.Document{f.docA, nil, f.docB}), 2))
	if len(got) != 3 {
		t.Fatalf("%d results, want 3", len(got))
	}
	if !errors.Is(got[1].Err, ErrNilDocument) {
		t.Errorf("nil doc err = %v, want ErrNilDocument", got[1].Err)
	}
	if got[1].Result.Entity != hin.NoObject || got[1].Doc != nil {
		t.Errorf("nil doc result = %+v", got[1])
	}
}

// TestLinkStreamCancelAfterK: the countdown contract — a stream
// canceled after exactly K documents have been consumed yields
// exactly those K in-order results and then closes, with every
// pipeline goroutine gone.
func TestLinkStreamCancelAfterK(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, nil)
	const total, k = 40, 7
	docs := make([]*corpus.Document, total)
	for i := range docs {
		docs[i] = f.docA
	}

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Feed only K documents before the cancellation point: the input
	// channel stays open (the producer is "mid-stream"), so the
	// pipeline's exit is driven purely by ctx, not input exhaustion.
	in := make(chan *corpus.Document)
	go func() {
		for i := 0; i < k; i++ {
			in <- docs[i]
		}
	}()

	out := m.LinkStream(ctx, in, 4)
	var got []StreamResult
	for i := 0; i < k; i++ {
		sr, ok := <-out
		if !ok {
			t.Fatalf("stream closed after %d results, want %d before cancel", i, k)
		}
		got = append(got, sr)
	}
	cancel()
	extra := collectStream(out) // must terminate: the channel closes on cancel
	if len(extra) != 0 {
		t.Errorf("%d results emitted after cancellation, want 0", len(extra))
	}
	for i, sr := range got {
		if sr.Seq != i || sr.Err != nil {
			t.Errorf("result %d: seq %d err %v, want in-order success", i, sr.Seq, sr.Err)
		}
	}
	if !goroutineSettled(base) {
		t.Errorf("pipeline goroutines leaked: %d running, started from %d", runtime.NumGoroutine(), base)
	}
}

// TestLinkStreamCancelMidFlow: cancellation racing live traffic still
// yields a strictly in-order prefix and a closed channel.
func TestLinkStreamCancelMidFlow(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, nil)
	const total = 500
	c := &corpus.Corpus{}
	for i := 0; i < total; i++ {
		c.Add(f.docA)
	}

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The feeder must itself be ctx-aware: once the dispatcher stops
	// reading, an unconditional send would block forever.
	in := make(chan *corpus.Document)
	go func() {
		defer close(in)
		for _, d := range c.Docs {
			select {
			case <-ctx.Done():
				return
			case in <- d:
			}
		}
	}()
	out := m.LinkStream(ctx, in, 4)
	seen := 0
	for sr := range out {
		if sr.Seq != seen {
			t.Fatalf("result %d has seq %d; not a contiguous prefix", seen, sr.Seq)
		}
		seen++
		if seen == 20 {
			cancel()
		}
	}
	if seen < 20 || seen == total {
		t.Errorf("stream emitted %d of %d results; cancel at 20 should stop it early but not before", seen, total)
	}
	if !goroutineSettled(base) {
		t.Errorf("pipeline goroutines leaked: %d running, started from %d", runtime.NumGoroutine(), base)
	}

}

// TestLinkStreamBoundedMemory: the acceptance memory bound — a
// 100k-document stream holds live heap to O(workers + window), far
// below what materializing the corpus and results would take. The
// corpus side reuses two documents, so the only per-volume memory a
// leak could accumulate is results; the ceiling catches any
// materialization creeping back in.
func TestLinkStreamBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-document stream run")
	}
	f := newFixture(t)
	m := newModel(t, f, nil)
	const total = 100_000
	const workers = 4

	// Warm every lazily-built structure (mixture index, walker cache)
	// before the baseline so growth measures the stream alone.
	if _, err := m.Link(f.docA); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(f.docB); err != nil {
		t.Fatal(err)
	}

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc

	in := make(chan *corpus.Document)
	go func() {
		defer close(in)
		for i := 0; i < total; i++ {
			if i%2 == 0 {
				in <- f.docA
			} else {
				in <- f.docB
			}
		}
	}()

	var peak uint64
	seen := 0
	for sr := range m.LinkStream(context.Background(), in, workers) {
		if sr.Err != nil {
			t.Fatalf("doc %d: %v", sr.Seq, sr.Err)
		}
		seen++
		if seen%20_000 == 0 {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
		}
	}
	if seen != total {
		t.Fatalf("stream emitted %d of %d documents", seen, total)
	}
	// Materialized results alone would be ≥ total × sizeof(Result+
	// candidates) ≈ 16 MB; the pipeline's window is a few KB. 4 MB of
	// headroom over the baseline tolerates GC noise while still
	// failing hard if any per-document state accumulates.
	const ceiling = 4 << 20
	growth := int64(peak) - int64(base)
	if growth > ceiling {
		t.Errorf("peak live heap grew %d bytes over baseline (limit %d); stream is materializing", growth, ceiling)
	}
}

// TestLinkStreamMetrics: the shine_stream_* series reflect one
// completed stream run.
func TestLinkStreamMetrics(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, nil)
	reg := obs.NewRegistry()
	m.SetMetrics(reg)
	got := collectStream(m.LinkStream(context.Background(),
		feedDocs([]*corpus.Document{f.docA, f.docB, f.docA}), 2))
	if len(got) != 3 {
		t.Fatalf("%d results, want 3", len(got))
	}
	if n := reg.Counter(MetricStreamDocs).Value(); n != 3 {
		t.Errorf("%s = %d, want 3", MetricStreamDocs, n)
	}
	if v := reg.Gauge(MetricStreamInFlight).Value(); v != 0 {
		t.Errorf("%s = %v after stream end, want 0", MetricStreamInFlight, v)
	}
	if n := reg.Histogram(MetricStreamSeconds, nil).Count(); n != 3 {
		t.Errorf("%s count = %d, want 3", MetricStreamSeconds, n)
	}
}
