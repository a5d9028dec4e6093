// Streaming batch linking: POST /v1/link/batch pipes an NDJSON
// document stream through the model's LinkStream worker pool and
// flushes one NDJSON result line per completed document. Memory is
// bounded by the pipeline window, not the job size — the endpoint a
// million-document annotation job points at, where per-document
// round-trips through POST /v1/link are a non-starter.
//
// Protocol. Request body: one JSON object per line,
//
//	{"id": "doc-1", "mention": "Wei Wang", "text": "..."}
//
// (id optional; blank lines skipped). Response body
// (application/x-ndjson): one line per input line, in input order,
//
//	{"seq": 0, "id": "doc-1", "entity": 17, "name": "...", "posterior": 0.93}
//	{"seq": 1, "id": "doc-2", "error": "no candidates for \"X\""}
//
// followed by exactly one summary trailer once the stream completes:
//
//	{"summary": {"docs": 2, "failures": 1, "seconds": 0.04}}
//
// A line that fails to parse produces a per-line error record in
// position — it never aborts the batch. A single line larger than
// MaxLineBytes is a 413 when it is the first line (nothing committed
// yet) and a per-line error record afterwards. The endpoint runs
// under the full request lifecycle: the per-request deadline and the
// admission semaphore apply to the whole batch, panics become 500s,
// and a client disconnect mid-stream cancels the pipeline (counted in
// shine_requests_canceled_total). A response with no trailer means
// the stream was cut short — deadline, disconnect or shutdown.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"shine/internal/corpus"
	"shine/internal/hin"
)

// errLineTooLong marks an NDJSON input line exceeding MaxLineBytes.
var errLineTooLong = errors.New("line exceeds the per-line size limit")

// batchLine is one parsed NDJSON request line.
type batchLine struct {
	// ID is echoed back on the document's result line; optional.
	ID string `json:"id"`
	// Mention is the surface form to resolve; required.
	Mention string `json:"mention"`
	// Text is the document context containing the mention.
	Text string `json:"text"`
}

// parseBatchLine decodes and validates one NDJSON request line. It is
// total: any byte slice yields either a usable batchLine or an error,
// never a panic — FuzzNDJSONLine holds it to that.
func parseBatchLine(line []byte) (batchLine, error) {
	var req batchLine
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return batchLine{}, fmt.Errorf("invalid JSON: %s", compactErr(err))
	}
	// A second document on the same line is a framing error the
	// caller should hear about, not silently half-process.
	if dec.More() {
		return batchLine{}, errors.New("invalid JSON: more than one document per line")
	}
	if req.Mention == "" {
		return batchLine{}, errors.New("mention is required")
	}
	return req, nil
}

// compactErr renders a JSON decode error on one line so it embeds
// cleanly in an NDJSON error record.
func compactErr(err error) string {
	return string(bytes.ReplaceAll([]byte(err.Error()), []byte("\n"), []byte(" ")))
}

// readBatchLine reads the next newline-terminated line from br,
// enforcing the per-line byte limit. Oversized lines are consumed to
// their terminating newline (so the stream can resync on the next
// line) and reported as errLineTooLong. io.EOF terminates a final
// unterminated line gracefully.
func readBatchLine(br *bufio.Reader, limit int64) ([]byte, error) {
	var line []byte
	for {
		chunk, err := br.ReadSlice('\n')
		if int64(len(line)+len(chunk)) > limit {
			// Discard the remainder of this line, then resync.
			for err == bufio.ErrBufferFull {
				_, err = br.ReadSlice('\n')
			}
			if err != nil && err != bufio.ErrBufferFull && err != io.EOF {
				return nil, err
			}
			return nil, errLineTooLong
		}
		line = append(line, chunk...)
		switch err {
		case nil:
			return bytes.TrimSuffix(line, []byte("\n")), nil
		case bufio.ErrBufferFull:
			continue
		case io.EOF:
			if len(line) == 0 {
				return nil, io.EOF
			}
			return line, nil
		default:
			return nil, err
		}
	}
}

// batchResultLine is one NDJSON response line. Exactly one of
// Entity/Error is meaningful: Error == "" is a link result, anything
// else is a per-line failure record.
type batchResultLine struct {
	Seq       int     `json:"seq"`
	ID        string  `json:"id,omitempty"`
	Entity    *int32  `json:"entity,omitempty"`
	Name      string  `json:"name,omitempty"`
	Posterior float64 `json:"posterior,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// batchSummary is the trailer carried on the final response line.
type batchSummary struct {
	// Docs is the number of input lines answered (results + error
	// records).
	Docs int `json:"docs"`
	// Failures counts error records: unparseable lines, oversized
	// lines and documents that failed to link.
	Failures int `json:"failures"`
	// Seconds is the batch wall time.
	Seconds float64 `json:"seconds"`
}

// lineMeta is what the parse goroutine records per line for the
// writer: the caller's id and, for lines that never reached the
// model, the error to report. Entries live only between parse and
// emission, so the table holds O(window) entries, not O(lines).
type lineMeta struct {
	id       string
	parseErr string
}

// batchMetaTable shares per-line metadata between the parser and
// writer goroutines.
type batchMetaTable struct {
	mu sync.Mutex
	m  map[int]lineMeta
}

func (t *batchMetaTable) put(seq int, meta lineMeta) {
	t.mu.Lock()
	t.m[seq] = meta
	t.mu.Unlock()
}

func (t *batchMetaTable) take(seq int) lineMeta {
	t.mu.Lock()
	meta := t.m[seq]
	delete(t.m, seq)
	t.mu.Unlock()
	return meta
}

func (s *Server) handleLinkBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sv := s.serving.Load()
	// Derive a cancel the handler owns: if the response loop bails
	// early (encode failure on a dead connection), the whole pipeline
	// unwinds immediately instead of waiting for the server to tear
	// the request context down.
	ctx, cancelPipeline := context.WithCancel(r.Context())
	defer cancelPipeline()
	// The batch protocol reads the request body while the response
	// streams — HTTP/1.x servers are half-duplex by default and close
	// the unread body at the first response write, truncating the
	// batch. Best-effort: recorders and HTTP/2 don't support it and
	// don't need it.
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()
	br := bufio.NewReader(r.Body)
	reqID := s.nextRequestID()

	// Read the first line before committing a status: an empty body
	// or an oversized opening line still gets a proper 4xx, which is
	// impossible once streaming has started.
	first, err := readBatchLine(br, s.maxLineBytes)
	switch {
	case err == io.EOF:
		httpError(w, http.StatusBadRequest, "empty batch: request body has no lines")
		return
	case errors.Is(err, errLineTooLong):
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request line exceeds %d bytes", s.maxLineBytes))
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, "reading request body: "+compactErr(err))
		return
	}

	meta := &batchMetaTable{m: make(map[int]lineMeta)}
	docs := make(chan *corpus.Document)

	// Parse goroutine: turn lines into documents in input order.
	// Unparseable and oversized lines flow through the pipeline as
	// nil documents so their error records come out in position.
	go func() {
		defer close(docs)
		line, err := first, error(nil)
		for seq := 0; ; {
			if len(bytes.TrimSpace(line)) > 0 {
				doc, m := s.parseBatchDoc(sv, reqID, seq, line, nil)
				meta.put(seq, m)
				select {
				case <-ctx.Done():
					return
				case docs <- doc:
				}
				seq++
			}
			line, err = readBatchLine(br, s.maxLineBytes)
			if err == io.EOF {
				return
			}
			if err != nil {
				doc, m := s.parseBatchDoc(sv, reqID, seq, nil, err)
				meta.put(seq, m)
				select {
				case <-ctx.Done():
					return
				case docs <- doc:
				}
				seq++
				line = nil
				if !errors.Is(err, errLineTooLong) {
					// The body itself failed mid-read (client went
					// away, TCP error); there are no further lines.
					return
				}
			}
		}
	}()

	out := sv.model.LinkStream(ctx, docs, 0) // 0: GOMAXPROCS workers

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	sum := batchSummary{}
	wroteAny := false
	for sr := range out {
		m := meta.take(sr.Seq)
		line := batchResultLine{Seq: sr.Seq, ID: m.id}
		switch {
		case m.parseErr != "":
			line.Error = m.parseErr
			sum.Failures++
		case sr.Err != nil:
			line.Error = sr.Err.Error()
			sum.Failures++
		default:
			line.Entity = entityID(sr.Result.Entity)
			line.Name = entityName(sv, sr.Result.Entity)
			line.Posterior = sr.Result.Candidates[0].Posterior
		}
		if err := enc.Encode(line); err != nil {
			// The connection is gone; the pipeline unwinds through
			// ctx when the server tears the request down.
			break
		}
		wroteAny = true
		sum.Docs++
		_ = rc.Flush()
	}

	if err := ctx.Err(); err != nil {
		if !wroteAny {
			// Nothing committed: report the cancellation properly.
			s.respondCtxError(w, err)
			return
		}
		// Mid-stream: the status line is long gone, so the cut batch
		// is visible as a missing trailer. Count it like any other
		// canceled request — disconnect or deadline.
		s.lifecycle.canceled.Inc()
		return
	}
	sum.Seconds = time.Since(start).Seconds()
	trailer := struct {
		Summary batchSummary `json:"summary"`
	}{sum}
	if err := enc.Encode(trailer); err == nil {
		_ = rc.Flush()
	}
}

// parseBatchDoc converts one input line (or a line-level read error)
// into the pipeline's input: an ingested document for good lines, nil
// plus an error record for bad ones.
func (s *Server) parseBatchDoc(sv *serving, reqID string, seq int, line []byte, readErr error) (*corpus.Document, lineMeta) {
	if readErr != nil {
		if errors.Is(readErr, errLineTooLong) {
			return nil, lineMeta{parseErr: fmt.Sprintf("line exceeds %d bytes", s.maxLineBytes)}
		}
		return nil, lineMeta{parseErr: "reading request body: " + compactErr(readErr)}
	}
	req, err := parseBatchLine(line)
	if err != nil {
		return nil, lineMeta{parseErr: err.Error()}
	}
	// Internal document ids must be process-unique; the caller's id
	// is echoed from lineMeta instead.
	doc := sv.ingester.Ingest(fmt.Sprintf("%s-%d", reqID, seq), req.Mention, hin.NoObject, req.Text)
	return doc, lineMeta{id: req.ID}
}
