// Incremental updates under live traffic: POST /v1/admin/update takes
// an NDJSON stream of graph delta operations, stages them against the
// serving generation's graph, and swaps in a model produced by
// shine.Model.WithDelta — CSR splice, warm-started PageRank and
// per-entity cache invalidation instead of a full rebuild. The
// endpoint shares Reload's single-flight lock (one structural change
// at a time, the loser gets 409) and its failure semantics: any error
// leaves the old generation serving untouched.
package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"shine/internal/hin"
	"shine/internal/obs"
	"shine/internal/shine"
)

// Delta metric names, all in the shared registry.
const (
	// MetricDeltaMerges counts successfully applied delta batches.
	MetricDeltaMerges = "shine_hin_delta_merges_total"
	// MetricDeltaEdges counts edges added across all applied deltas.
	MetricDeltaEdges = "shine_hin_delta_edges_total"
	// MetricDeltaMergeSeconds is the CSR splice wall time of the most
	// recent applied delta.
	MetricDeltaMergeSeconds = "shine_hin_delta_merge_seconds"
	// MetricDeltaFailures counts update requests that failed after
	// parsing (merge or model errors); the old generation kept serving.
	MetricDeltaFailures = "shine_hin_delta_failures_total"
)

type deltaMetrics struct {
	merges       *obs.Counter
	edges        *obs.Counter
	mergeSeconds *obs.Gauge
	failures     *obs.Counter
}

func newDeltaMetrics(reg *obs.Registry) *deltaMetrics {
	return &deltaMetrics{
		merges:       reg.Counter(MetricDeltaMerges),
		edges:        reg.Counter(MetricDeltaEdges),
		mergeSeconds: reg.Gauge(MetricDeltaMergeSeconds),
		failures:     reg.Counter(MetricDeltaFailures),
	}
}

// updateOp is one NDJSON line of a delta batch. Two shapes:
//
//	{"op":"object","type":"paper","name":"p-9"}
//	{"op":"edge","rel":"write","src":{"type":"author","name":"A"},"dst":{"type":"paper","name":"p-9"}}
//
// Objects and edges resolve by (type, name); an edge may reference
// objects staged earlier in the same batch, and staging an object
// that already exists resolves to it instead of erroring, so batches
// are idempotent at the object level.
type updateOp struct {
	Op   string     `json:"op"`
	Type string     `json:"type,omitempty"`
	Name string     `json:"name,omitempty"`
	Rel  string     `json:"rel,omitempty"`
	Src  *updateRef `json:"src,omitempty"`
	Dst  *updateRef `json:"dst,omitempty"`
}

type updateRef struct {
	Type string `json:"type"`
	Name string `json:"name"`
}

// parseDelta reads the whole NDJSON body and stages every operation
// against g, all-or-nothing: the first bad line aborts with its line
// number and nothing is applied. The returned delta has not been
// merged yet.
func parseDelta(g *hin.Graph, r io.Reader, maxLine int64) (*hin.Delta, error) {
	d := g.Append()
	br := bufio.NewReader(r)
	for lineNo := 1; ; lineNo++ {
		line, err := readBatchLine(br, maxLine)
		if err == io.EOF {
			break
		}
		if errors.Is(err, errLineTooLong) {
			return nil, fmt.Errorf("line %d: exceeds %d bytes", lineNo, maxLine)
		}
		if err != nil {
			return nil, fmt.Errorf("line %d: reading body: %w", lineNo, err)
		}
		if len(bytes.Trim(line, " \t\r")) == 0 {
			continue
		}
		if err := stageOp(g, d, line); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	return d, nil
}

// stageOp parses and stages one delta line.
func stageOp(g *hin.Graph, d *hin.Delta, line []byte) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var op updateOp
	if err := dec.Decode(&op); err != nil {
		return fmt.Errorf("invalid JSON: %w", err)
	}
	if dec.More() {
		return errors.New("trailing data after the JSON object")
	}
	schema := g.Schema()
	switch op.Op {
	case "object":
		if op.Name == "" {
			return errors.New("object op needs a name")
		}
		typ, ok := schema.TypeByName(op.Type)
		if !ok {
			return fmt.Errorf("unknown object type %q", op.Type)
		}
		_, err := d.Append(typ, op.Name)
		return err
	case "edge":
		if op.Src == nil || op.Dst == nil {
			return errors.New("edge op needs src and dst")
		}
		rel, ok := schema.RelationByName(op.Rel)
		if !ok {
			return fmt.Errorf("unknown relation %q", op.Rel)
		}
		src, err := resolveRef(schema, d, op.Src)
		if err != nil {
			return fmt.Errorf("src: %w", err)
		}
		dst, err := resolveRef(schema, d, op.Dst)
		if err != nil {
			return fmt.Errorf("dst: %w", err)
		}
		return d.Patch(rel, src, dst)
	default:
		return fmt.Errorf("unknown op %q (want \"object\" or \"edge\")", op.Op)
	}
}

func resolveRef(schema *hin.Schema, d *hin.Delta, ref *updateRef) (hin.ObjectID, error) {
	typ, ok := schema.TypeByName(ref.Type)
	if !ok {
		return 0, fmt.Errorf("unknown object type %q", ref.Type)
	}
	id, ok := d.Lookup(typ, ref.Name)
	if !ok {
		return 0, fmt.Errorf("no %s object named %q (stage it with an object op first)", ref.Type, ref.Name)
	}
	return id, nil
}

// updateResponse is the body of a successful POST /v1/admin/update.
type updateResponse struct {
	Status string            `json:"status"`
	Stats  shine.UpdateStats `json:"stats"`
}

// Update applies one staged delta batch read from r to the serving
// generation. It shares the reload single-flight lock: a concurrent
// Reload or Update returns errReloadInFlight (409 over HTTP). The
// body is parsed in full before anything happens — a malformed batch
// changes nothing — and a failure in the merge or model refresh
// leaves the old generation serving, with the failure counter
// incremented.
func (s *Server) Update(r io.Reader) (shine.UpdateStats, error) {
	var zero shine.UpdateStats
	if !s.reloadMu.TryLock() {
		return zero, errReloadInFlight
	}
	defer s.reloadMu.Unlock()

	sv := s.serving.Load()
	delta, err := parseDelta(sv.model.Graph(), r, s.maxLineBytes)
	if err != nil {
		return zero, fmt.Errorf("%w: %w", errBadDelta, err)
	}
	if delta.Empty() {
		return zero, fmt.Errorf("%w: batch stages no operations", errBadDelta)
	}

	start := time.Now()
	m2, stats, err := sv.model.WithDelta(delta)
	if err != nil {
		s.delta.failures.Inc()
		return zero, err
	}
	nsv, err := s.buildServing(m2, sv.snapInfo)
	if err != nil {
		s.delta.failures.Inc()
		return zero, err
	}
	s.install(nsv)

	s.delta.merges.Inc()
	s.delta.edges.Add(uint64(stats.NewEdges))
	s.delta.mergeSeconds.Set(stats.MergeSeconds)
	if s.logger != nil {
		s.logger.Printf("delta update: +%d objects +%d edges, %d/%d objects affected, kept %d mixtures (%.3fs total)",
			stats.NewObjects, stats.NewEdges, stats.AffectedObjects, m2.Graph().NumObjects(),
			stats.MixturesKept, time.Since(start).Seconds())
	}
	return stats, nil
}

// errBadDelta marks an update rejected at parse time; handleUpdate
// maps it to 400, or to 413 when the body outgrew maxUpdateBytes.
var errBadDelta = errors.New("server: invalid delta batch")

// maxUpdateBytes bounds a whole POST /v1/admin/update body; each
// NDJSON line is still bounded by Options.MaxLineBytes.
const maxUpdateBytes = 64 << 20

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	stats, err := s.Update(http.MaxBytesReader(w, r.Body, maxUpdateBytes))
	if err != nil {
		var maxErr *http.MaxBytesError
		switch {
		case err == errReloadInFlight:
			httpError(w, http.StatusConflict, err.Error())
		case errors.As(err, &maxErr):
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("update body exceeds %d bytes", maxErr.Limit))
		case errors.Is(err, errBadDelta):
			httpError(w, http.StatusBadRequest, err.Error())
		default:
			httpError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	s.writeJSON(w, updateResponse{Status: "updated", Stats: stats})
}
