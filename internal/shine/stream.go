package shine

import (
	"context"
	"errors"
	"math"
	"sync"
	"time"

	"shine/internal/corpus"
	"shine/internal/hin"
)

// ErrNilDocument is the per-document error carried by a StreamResult
// whose input document was nil. Nil documents flow through LinkStream
// in position rather than being dropped, so a producer that
// interleaves unparseable records (the NDJSON batch endpoint) keeps
// its output aligned with its input line by line.
var ErrNilDocument = errors.New("shine: nil document")

// StreamResult is the outcome of linking one document of a stream.
type StreamResult struct {
	// Seq is the document's 0-based position in the input stream.
	// LinkStream emits results in strictly ascending Seq order.
	Seq int
	// Doc is the input document (nil when the input was nil).
	Doc *corpus.Document
	// Result is the link outcome; on error it has Entity ==
	// hin.NoObject, matching Link's degraded return.
	Result Result
	// Err is the per-document failure, if any — ErrNoCandidates, a
	// walk error, ErrNilDocument, or the stream context's error for
	// documents aborted mid-link by cancellation.
	Err error

	// start is the dispatch timestamp, threaded through the pipeline
	// for the shine_stream_seconds residency histogram; zero on an
	// uninstrumented model.
	start time.Time
}

// streamJob is one dispatched document with its stream position and
// dispatch time (zero when the model is uninstrumented).
type streamJob struct {
	seq   int
	doc   *corpus.Document
	start time.Time
}

// LinkStream links every document read from docs using a bounded
// worker pool and returns the results on the output channel in input
// order. It is the model's one batch-linking entry point: the NDJSON
// batch endpoint and the annotator stream through it.
// Nothing is materialized per stream except the in-flight window, so
// memory is O(workers + reorder window) no matter how many documents
// flow through — the shape a million-document batch job needs.
// workers <= 0 uses GOMAXPROCS. The paper's implementation is
// single-threaded; linking is embarrassingly parallel, so a serving
// deployment should not be.
//
// Ordering: results are emitted in exactly the order documents were
// read from docs, restored by a sequence-numbered reorder buffer. The
// buffer is bounded by a credit window of 2×workers documents between
// dispatch and emission, which doubles as backpressure: a slow
// consumer stops the pool from racing ahead, and a slow head-of-line
// document stops faster workers from piling up completed results.
//
// Errors: a document that fails to link (no candidates, walk failure)
// flows through as a StreamResult with Err set and a NIL Result —
// degraded documents do not abort the stream. A nil input document
// flows through with Err == ErrNilDocument.
//
// Cancellation: when ctx ends, the pipeline drains cleanly — no more
// input is read, documents still queued are not linked (their results
// are discarded, not emitted), in-flight links abort mid-walk via
// LinkContext, and the output channel closes once every worker has
// exited. The consumer observes a channel close; it is never sent a
// post-cancellation result and never blocks forever.
//
// The output channel closes when the input channel closes and all
// results have been emitted, or when ctx is canceled. The caller owns
// closing docs; LinkStream never does.
func (m *Model) LinkStream(ctx context.Context, docs <-chan *corpus.Document, workers int) <-chan StreamResult {
	workers = clampWorkers(workers, math.MaxInt)
	window := 2 * workers

	out := make(chan StreamResult)
	// jobs is bounded-buffered: a canceled stream stops dispatching
	// immediately and workers drain at most the buffer, not the whole
	// input.
	jobs := make(chan streamJob, workers)
	results := make(chan StreamResult, workers)
	// credits bounds the number of documents between dispatch and
	// emission; the emitter returns a credit only after a result
	// leaves the window, so the reorder buffer can never hold more
	// than window results.
	credits := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		credits <- struct{}{}
	}

	mm := m.metrics

	// Dispatcher: assign sequence numbers in input order and feed the
	// bounded jobs channel, blocking on the credit window.
	go func() {
		defer close(jobs)
		for seq := 0; ; seq++ {
			var doc *corpus.Document
			var ok bool
			select {
			case <-ctx.Done():
				return
			case doc, ok = <-docs:
				if !ok {
					return
				}
			}
			select {
			case <-ctx.Done():
				return
			case <-credits:
			}
			job := streamJob{seq: seq, doc: doc, start: mm.streamDispatch()}
			select {
			case <-ctx.Done():
				// Dispatched into the metrics but never into the
				// pool; undo the in-flight count.
				mm.streamSettle(job.start, false)
				return
			case jobs <- job:
			}
		}
	}()

	// Workers: the existing Link hot path, one document at a time.
	// Results go to the unordered results channel; the emitter always
	// drains it, so these sends cannot deadlock.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobs {
				sr := StreamResult{Seq: job.seq, Doc: job.doc, start: job.start}
				switch {
				case job.doc == nil:
					sr.Result = Result{Entity: hin.NoObject}
					sr.Err = ErrNilDocument
				case ctx.Err() != nil:
					// Canceled with the job already queued: don't pay
					// for the link, just flow the context error
					// through for the emitter to discard.
					sr.Result = Result{Entity: hin.NoObject}
					sr.Err = ctx.Err()
				default:
					sr.Result, sr.Err = m.LinkContext(ctx, job.doc)
				}
				results <- sr
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Emitter: restore input order through the bounded reorder buffer
	// and return credits as results leave the window.
	go func() {
		defer close(out)
		pending := make(map[int]StreamResult, window)
		next := 0
		canceled := false
		for sr := range results {
			pending[sr.Seq] = sr
			for {
				r, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				next++
				if !canceled {
					// Check cancellation with priority over the send,
					// so a consumer that cancels but keeps reading
					// still sees the stream end promptly.
					select {
					case <-ctx.Done():
						canceled = true
					default:
					}
				}
				if !canceled {
					select {
					case out <- r:
						mm.streamSettle(r.start, true)
					case <-ctx.Done():
						canceled = true
					}
				}
				if canceled {
					mm.streamSettle(r.start, false)
				}
				credits <- struct{}{}
			}
		}
	}()
	return out
}
