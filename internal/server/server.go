// Package server exposes a trained SHINE model over HTTP — the
// serving surface a deployment of the paper's system needs: linking
// single mentions, annotating raw text, explaining decisions and
// inspecting entities. JSON in, JSON out, stdlib only.
//
// Endpoints:
//
//	POST /v1/link[?nil_prior=P]  {"mention": "...", "text": "..."} -> linking result
//	POST /v1/link/batch  NDJSON stream of link requests         -> NDJSON result stream
//	POST /v1/annotate    {"text": "..."}                        -> annotations
//	POST /v1/explain     {"mention": "...", "text": "..."}      -> evidence breakdown
//	GET  /v1/candidates?mention=NAME[&loose=1|&fuzzy=1]         -> candidate entities
//	GET  /v1/entity?id=N                                        -> entity card
//	GET  /v1/healthz                                            -> liveness and build identity
//	GET  /v1/readyz                                             -> readiness
//	POST /v1/admin/reload                                       -> snapshot hot swap
//	POST /v1/admin/update  NDJSON stream of graph delta ops     -> incremental update
//	GET  /metrics                                               -> Prometheus exposition
//	GET  /debug/pprof/*                                         -> profiling (opt-in)
//
// Every endpoint accepts exactly one method; anything else is 405
// with an Allow header. Requests are instrumented per endpoint
// (counts by status class, in-flight gauge, latency histograms) into
// an obs.Registry, and the model's own link/EM/walker-cache metrics
// land in the same registry — one scrape shows the whole system.
//
// The /v1 model-serving endpoints run under a request lifecycle (see
// lifecycle.go): the client's context is threaded into the model so a
// disconnect or deadline aborts meta-path walk work mid-flight,
// Options.RequestTimeout bounds every request, Options.MaxInFlight
// sheds excess load with 429, and a panic in any handler becomes a
// 500 instead of a dead process.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"shine/internal/annotate"
	"shine/internal/corpus"
	"shine/internal/hin"
	"shine/internal/obs"
	"shine/internal/shine"
	"shine/internal/snapshot"
	"shine/internal/surftrie"
)

// serving is one immutable generation of the serving state: the
// model plus everything derived from its graph. Handlers load the
// whole bundle once per request from Server.serving, so a hot swap
// mid-request can never pair one generation's model with another's
// index — a request is served entirely by the generation it started
// on.
type serving struct {
	model     *shine.Model
	ingester  *corpus.Ingester
	annotator *annotate.Annotator
	// snapInfo identifies the snapshot artifact this generation was
	// loaded from; nil when the model was built in-process.
	snapInfo *snapshot.Info
}

// Server wires a model and its ingestion pipeline into an
// http.Handler. It is safe for concurrent requests, including
// concurrent hot swaps via Reload.
type Server struct {
	// serving is the current generation, swapped atomically by Reload.
	serving atomic.Pointer[serving]
	mux     *http.ServeMux
	// Rebuild inputs Reload needs to derive a fresh generation from a
	// new model: the ingestion config and the Options that shaped the
	// original bundle.
	ingestCfg  corpus.IngestConfig
	precompute bool
	// snapshotPath, when set, is the artifact POST /v1/admin/reload
	// (and SIGHUP in the CLI) reloads from.
	snapshotPath string
	// reloadMu single-flights Reload; concurrent requests get a 409.
	reloadMu sync.Mutex
	// snap holds the shine_snapshot_* instruments; always non-nil.
	snap *snapshotMetrics
	// delta holds the shine_hin_delta_* instruments; always non-nil.
	delta *deltaMetrics
	// maxBodyBytes bounds request bodies; documents are pages, not
	// uploads.
	maxBodyBytes int64
	// maxLineBytes bounds one NDJSON line on /v1/link/batch — the
	// batch body as a whole is unbounded by design.
	maxLineBytes int64
	// nilPrior, when positive, makes /v1/link NIL-aware.
	nilPrior float64
	// logger, when set, records one line per request.
	logger *log.Logger
	// metrics holds every instrument the server and model record.
	metrics *obs.Registry
	// lifecycle holds the request-lifecycle instruments (panics,
	// shedding, cancellations); always non-nil.
	lifecycle *lifecycleMetrics
	// requestTimeout, when positive, bounds each model-serving
	// request.
	requestTimeout time.Duration
	// limiter is the admission semaphore; nil when MaxInFlight is
	// unset.
	limiter *limiter
	// reqSeq issues unique per-request document ids, so concurrent
	// requests never collide in anything keyed by document.
	reqSeq atomic.Uint64
	// ready gates GET /v1/readyz; see SetReady.
	ready atomic.Bool
	// build identifies the binary in /v1/healthz.
	build buildIdentity
}

// Options configures the server.
type Options struct {
	// MaxBodyBytes bounds request bodies (default 1 MiB). It does not
	// apply to /v1/link/batch, whose body is a stream bounded per
	// line by MaxLineBytes instead.
	MaxBodyBytes int64
	// MaxLineBytes bounds a single NDJSON line on /v1/link/batch
	// (default 256 KiB). An oversized first line is answered 413; an
	// oversized later line becomes a per-line error record in the
	// output stream.
	MaxLineBytes int64
	// NILPrior, when positive, enables NIL detection on /v1/link with
	// this prior.
	NILPrior float64
	// Logger, when set, logs one line per request (method, path,
	// status, duration).
	Logger *log.Logger
	// Metrics, when set, receives all request and model
	// instrumentation; when nil the server creates a private registry.
	// Share one registry between training and serving so EM metrics
	// survive into the serving exposition.
	Metrics *obs.Registry
	// NoMetricsEndpoint hides GET /metrics. Instrumentation still
	// runs; the registry stays reachable through Server.Metrics.
	NoMetricsEndpoint bool
	// Pprof mounts the net/http/pprof profiling handlers under
	// /debug/pprof/. Off by default: profiles expose internals, so a
	// deployment opts in explicitly.
	Pprof bool
	// FuzzyDistance, when positive, enables the fuzzy candidate
	// fallback on the model-serving endpoints: mentions whose exact
	// candidate set is empty are retried against the surface-form trie
	// at this edit distance (max surftrie.MaxDistance). It also sets
	// the distance /v1/candidates?fuzzy=1 retrieves at, and is
	// reapplied after every hot swap.
	FuzzyDistance int
	// Precompute eagerly builds the model's frozen entity-mixture
	// index before the server accepts traffic, so no request ever pays
	// meta-path walk latency. Adds startup time proportional to the
	// entity count; off by default.
	Precompute bool
	// RequestTimeout, when positive, is the per-request deadline for
	// the /v1 model-serving endpoints, layered onto whatever deadline
	// the client's own context carries. A request that exceeds it is
	// aborted mid-walk and answered 503 with the timeout in the body.
	RequestTimeout time.Duration
	// MaxInFlight, when positive, caps concurrently executing
	// model-serving requests. Excess requests wait in a bounded queue
	// (MaxQueued deep); beyond that they are shed with 429 and a
	// Retry-After header. 0 means unlimited.
	MaxInFlight int
	// MaxQueued bounds the admission wait queue when MaxInFlight is
	// set; 0 defaults to MaxInFlight. Negative disables queueing
	// entirely (immediate 429 once the limit is reached).
	MaxQueued int
	// SnapshotPath, when set, enables zero-downtime hot swaps: POST
	// /v1/admin/reload (and SIGHUP in the CLI) re-reads this artifact,
	// validates it off the request path and atomically swaps the
	// serving model.
	SnapshotPath string
	// SnapshotInfo identifies the artifact the initial model was
	// loaded from, when it came from one; logged at startup and
	// exposed in the /v1/healthz payload.
	SnapshotInfo *snapshot.Info
}

// buildServing derives one serving generation from a model: the
// optional mixture precompute, the ingestion pipeline and the
// annotator. Nothing here touches the serving state, so a failure
// leaves the current generation serving.
func (s *Server) buildServing(m *shine.Model, snapInfo *snapshot.Info) (*serving, error) {
	if s.precompute {
		if err := m.PrecomputeMixtures(); err != nil {
			return nil, fmt.Errorf("server: precomputing mixtures: %w", err)
		}
	}
	ing, err := corpus.NewIngester(m.Graph(), s.ingestCfg)
	if err != nil {
		return nil, err
	}
	ann, err := annotate.New(m, s.ingestCfg, annotate.Options{})
	if err != nil {
		return nil, err
	}
	return &serving{model: m, ingester: ing, annotator: ann, snapInfo: snapInfo}, nil
}

// install makes sv the serving generation; boot, Reload and Update
// all end here. Readiness drops for the instant between detaching the
// outgoing model's collectors and storing sv, so a probe mid-swap sees
// a deliberate not-ready rather than a half-wired generation. Requests
// already admitted finish on the bundle they loaded: the old model
// stays fully functional, only unobserved.
//
// Once readiness is back, install collects. The last cycle ran
// mid-load, with the artifact buffer, the decoded arrays and any EM,
// merge or precompute garbage live, and the GC's next goal is twice
// what that cycle found. Collecting here sets the goal, and with it
// peak resident memory, from the live model instead (DESIGN.md §12).
func (s *Server) install(sv *serving) {
	s.SetReady(false)
	if old := s.serving.Load(); old != nil {
		old.model.UnregisterCollectors(s.metrics)
	}
	sv.model.SetMetrics(s.metrics)
	s.serving.Store(sv)
	s.SetReady(true)
	runtime.GC()
}

// New builds a server over a (typically trained) model.
func New(m *shine.Model, ingestCfg corpus.IngestConfig, opts Options) (*Server, error) {
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 1 << 20
	}
	if opts.MaxLineBytes <= 0 {
		opts.MaxLineBytes = 256 << 10
	}
	// The explicit NaN test matters: NaN < 0 and NaN >= 1 are both
	// false, so a NaN prior would pass the range check, count as "NIL
	// mode on" and poison every posterior downstream.
	if math.IsNaN(opts.NILPrior) || opts.NILPrior < 0 || opts.NILPrior >= 1 {
		return nil, fmt.Errorf("server: NIL prior %v outside [0, 1)", opts.NILPrior)
	}
	if opts.RequestTimeout < 0 {
		return nil, fmt.Errorf("server: negative request timeout %v", opts.RequestTimeout)
	}
	if err := m.SetFuzzyDistance(opts.FuzzyDistance); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		mux:            http.NewServeMux(),
		ingestCfg:      ingestCfg,
		precompute:     opts.Precompute,
		snapshotPath:   opts.SnapshotPath,
		maxBodyBytes:   opts.MaxBodyBytes,
		maxLineBytes:   opts.MaxLineBytes,
		nilPrior:       opts.NILPrior,
		logger:         opts.Logger,
		metrics:        reg,
		lifecycle:      newLifecycleMetrics(reg),
		snap:           newSnapshotMetrics(reg),
		delta:          newDeltaMetrics(reg),
		requestTimeout: opts.RequestTimeout,
		build:          readBuildIdentity(),
	}
	sv, err := s.buildServing(m, opts.SnapshotInfo)
	if err != nil {
		return nil, err
	}
	reg.Register(goRuntime{})
	if opts.SnapshotInfo != nil {
		s.snap.bytes.Set(float64(opts.SnapshotInfo.Bytes))
	}
	if opts.MaxInFlight > 0 {
		queued := opts.MaxQueued
		switch {
		case queued == 0:
			queued = opts.MaxInFlight
		case queued < 0:
			queued = 0
		}
		s.limiter = newLimiter(opts.MaxInFlight, queued, s.lifecycle)
	}
	// Model-serving endpoints run under the request lifecycle
	// (deadline + admission control); ops endpoints do not — a load
	// balancer must still reach readiness while requests are shedding.
	s.route(http.MethodPost, "/v1/link", s.guard(s.handleLink))
	s.route(http.MethodPost, "/v1/link/batch", s.guard(s.handleLinkBatch))
	s.route(http.MethodPost, "/v1/annotate", s.guard(s.handleAnnotate))
	s.route(http.MethodPost, "/v1/explain", s.guard(s.handleExplain))
	s.route(http.MethodGet, "/v1/candidates", s.guard(s.handleCandidates))
	s.route(http.MethodGet, "/v1/entity", s.guard(s.handleEntity))
	s.route(http.MethodGet, "/v1/healthz", s.handleHealthz)
	s.route(http.MethodGet, "/v1/readyz", s.handleReadyz)
	// Admin endpoints are ops-plane like healthz: not guarded, so a
	// reload cannot be shed by the very overload it might relieve.
	s.route(http.MethodPost, "/v1/admin/reload", s.handleReload)
	s.route(http.MethodPost, "/v1/admin/update", s.handleUpdate)
	if !opts.NoMetricsEndpoint {
		s.route(http.MethodGet, "/metrics", reg.Handler().ServeHTTP)
	}
	if opts.Pprof {
		// Explicit handlers on our mux — importing net/http/pprof
		// also touches http.DefaultServeMux, which we never serve.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	// Construction (including any eager precompute) is done; the
	// server can take traffic. Deployments flip readiness off around
	// maintenance via SetReady.
	s.install(sv)
	return s, nil
}

// Metrics returns the server's registry — the place to scrape or to
// record deployment-specific metrics alongside the server's own.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// route mounts a handler that accepts exactly one method, wrapped in
// the per-endpoint instrumentation middleware (so rejected methods
// are counted too).
func (s *Server) route(method, path string, h http.HandlerFunc) {
	enforced := func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			w.Header().Set("Allow", method)
			httpError(w, http.StatusMethodNotAllowed, method+" required")
			return
		}
		h(w, r)
	}
	s.mux.Handle(path, s.metrics.Middleware(path, http.HandlerFunc(enforced)))
}

// ServeHTTP implements http.Handler. Every request — routed or not —
// runs under the panic-recovery middleware, and one line is logged
// per request when a logger is configured.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	s.serveRecovered(sw, r)
	if s.logger != nil {
		s.logger.Printf("%s %s %d %v", r.Method, r.URL.Path, sw.status, time.Since(start).Round(time.Microsecond))
	}
}

// serveRecovered dispatches to the mux with panic recovery installed,
// so the request log line above still fires for a panicked request.
func (s *Server) serveRecovered(sw *statusWriter, r *http.Request) {
	defer s.recoverPanic(sw, r)
	s.mux.ServeHTTP(sw, r)
}

// statusWriter records the response status for logging and whether
// the response has started — the fact panic recovery needs to decide
// between sending a 500 and staying silent.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.wrote = true
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Unwrap exposes the wrapped writer to http.ResponseController, so
// streaming handlers (/v1/link/batch) can flush per line and enable
// full-duplex mode through the logging/recovery wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// linkRequest is the body of /v1/link and /v1/explain.
type linkRequest struct {
	// Mention is the surface form to resolve.
	Mention string `json:"mention"`
	// Text is the document context containing the mention.
	Text string `json:"text"`
}

// candidateJSON is one scored candidate; a null entity is NIL.
type candidateJSON struct {
	Entity    *int32  `json:"entity"`
	Name      string  `json:"name,omitempty"`
	Posterior float64 `json:"posterior"`
}

// linkResponse is the body returned by /v1/link.
type linkResponse struct {
	Entity     *int32          `json:"entity"`
	Name       string          `json:"name,omitempty"`
	Candidates []candidateJSON `json:"candidates"`
}

func (s *Server) handleLink(w http.ResponseWriter, r *http.Request) {
	var req linkRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if req.Mention == "" {
		httpError(w, http.StatusBadRequest, "mention is required")
		return
	}
	// A nil_prior query parameter overrides the server-wide NIL prior
	// for this request: 0 disables NIL mode, (0, 1) enables it at that
	// mass. Rejected unless it parses to a float in [0, 1) — NaN in
	// particular parses successfully and must answer 400, not seep
	// into the model (the model's own guard would also refuse it, but
	// as a 500).
	nilPrior := s.nilPrior
	if qp := r.URL.Query().Get("nil_prior"); qp != "" {
		v, err := strconv.ParseFloat(qp, 64)
		if err != nil || math.IsNaN(v) || v < 0 || v >= 1 {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("nil_prior %q outside [0, 1)", qp))
			return
		}
		nilPrior = v
	}
	sv := s.serving.Load()
	doc := sv.ingester.Ingest(s.nextRequestID(), req.Mention, hin.NoObject, req.Text)

	ctx := r.Context()
	var res shine.Result
	var err error
	if nilPrior > 0 {
		res, err = sv.model.LinkNILContext(ctx, doc, nilPrior)
	} else {
		res, err = sv.model.LinkContext(ctx, doc)
	}
	if err != nil {
		if isCtxError(err) {
			s.respondCtxError(w, err)
			return
		}
		if errors.Is(err, shine.ErrNoCandidates) {
			httpError(w, http.StatusNotFound, err.Error())
			return
		}
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp := linkResponse{Entity: entityID(res.Entity), Name: entityName(sv, res.Entity)}
	for _, cs := range res.Candidates {
		resp.Candidates = append(resp.Candidates, candidateJSON{
			Entity:    entityID(cs.Entity),
			Name:      entityName(sv, cs.Entity),
			Posterior: cs.Posterior,
		})
	}
	s.writeJSON(w, resp)
}

// annotateRequest is the body of /v1/annotate.
type annotateRequest struct {
	Text string `json:"text"`
}

type annotationJSON struct {
	Start      int     `json:"start"`
	End        int     `json:"end"`
	Surface    string  `json:"surface"`
	Entity     int32   `json:"entity"`
	Name       string  `json:"name"`
	Posterior  float64 `json:"posterior"`
	Candidates int     `json:"candidates"`
}

func (s *Server) handleAnnotate(w http.ResponseWriter, r *http.Request) {
	var req annotateRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if req.Text == "" {
		httpError(w, http.StatusBadRequest, "text is required")
		return
	}
	anns, err := s.serving.Load().annotator.AnnotateContext(r.Context(), s.nextRequestID(), req.Text)
	if err != nil {
		if isCtxError(err) {
			s.respondCtxError(w, err)
			return
		}
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	out := make([]annotationJSON, 0, len(anns))
	for _, an := range anns {
		out = append(out, annotationJSON{
			Start: an.Start, End: an.End, Surface: an.Surface,
			Entity: int32(an.Entity), Name: an.EntityName,
			Posterior: an.Posterior, Candidates: an.Candidates,
		})
	}
	s.writeJSON(w, struct {
		Annotations []annotationJSON `json:"annotations"`
	}{out})
}

// explainResponse is the body of /v1/explain.
type explainResponse struct {
	Entity            *int32               `json:"entity"`
	Name              string               `json:"name,omitempty"`
	RunnerUp          *int32               `json:"runnerUp"`
	Margin            float64              `json:"margin"`
	PopularityLogOdds float64              `json:"popularityLogOdds"`
	Objects           []objectContribution `json:"objects"`
}

type objectContribution struct {
	Name    string  `json:"name"`
	Type    string  `json:"type"`
	Count   int     `json:"count"`
	LogOdds float64 `json:"logOdds"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req linkRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if req.Mention == "" {
		httpError(w, http.StatusBadRequest, "mention is required")
		return
	}
	sv := s.serving.Load()
	doc := sv.ingester.Ingest(s.nextRequestID(), req.Mention, hin.NoObject, req.Text)
	ex, err := sv.model.ExplainContext(r.Context(), doc)
	if err != nil {
		if isCtxError(err) {
			s.respondCtxError(w, err)
			return
		}
		if errors.Is(err, shine.ErrNoCandidates) {
			httpError(w, http.StatusNotFound, err.Error())
			return
		}
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp := explainResponse{
		Entity:            entityID(ex.Entity),
		Name:              entityName(sv, ex.Entity),
		RunnerUp:          entityID(ex.RunnerUp),
		Margin:            ex.Margin,
		PopularityLogOdds: ex.PopularityLogOdds,
	}
	for _, oc := range ex.Objects {
		resp.Objects = append(resp.Objects, objectContribution{
			Name: oc.Name, Type: oc.Type, Count: oc.Count, LogOdds: oc.LogOdds,
		})
	}
	s.writeJSON(w, resp)
}

// candidatesResponse is the body of /v1/candidates.
type candidatesResponse struct {
	Mention    string           `json:"mention"`
	Loose      bool             `json:"loose"`
	Fuzzy      bool             `json:"fuzzy,omitempty"`
	Candidates []entityResponse `json:"candidates"`
}

func (s *Server) handleCandidates(w http.ResponseWriter, r *http.Request) {
	mention := r.URL.Query().Get("mention")
	if mention == "" {
		httpError(w, http.StatusBadRequest, "mention is required")
		return
	}
	loose := r.URL.Query().Get("loose") == "1"
	fuzzy := r.URL.Query().Get("fuzzy") == "1"
	if loose && fuzzy {
		httpError(w, http.StatusBadRequest, "loose and fuzzy are mutually exclusive")
		return
	}
	sv := s.serving.Load()
	src := sv.model.CandidateSource()
	var cands []hin.ObjectID
	switch {
	case fuzzy:
		fz, ok := src.(shine.FuzzyCandidateSource)
		if !ok {
			httpError(w, http.StatusBadRequest, "candidate source does not support fuzzy retrieval")
			return
		}
		dist := sv.model.FuzzyDistance()
		if dist <= 0 {
			dist = surftrie.MaxDistance
		}
		cands = fz.FuzzyCandidates(mention, dist)
	case loose:
		cands = src.LooseCandidates(mention)
	default:
		cands = src.Candidates(mention)
	}
	g := sv.model.Graph()
	resp := candidatesResponse{Mention: mention, Loose: loose, Fuzzy: fuzzy, Candidates: []entityResponse{}}
	for _, e := range cands {
		resp.Candidates = append(resp.Candidates, entityResponse{
			Entity:     int32(e),
			Name:       g.Name(e),
			Type:       g.Schema().Type(g.TypeOf(e)).Name,
			Popularity: sv.model.Popularity(e),
		})
	}
	s.writeJSON(w, resp)
}

// entityResponse is the body of /v1/entity.
type entityResponse struct {
	Entity     int32   `json:"entity"`
	Name       string  `json:"name"`
	Type       string  `json:"type"`
	Popularity float64 `json:"popularity"`
}

func (s *Server) handleEntity(w http.ResponseWriter, r *http.Request) {
	// strconv, not Sscanf: Sscanf("%d") accepts trailing garbage
	// ("12abc") and silently wraps out-of-range values.
	id64, err := strconv.ParseInt(r.URL.Query().Get("id"), 10, 32)
	if err != nil {
		httpError(w, http.StatusBadRequest, "id must be a 32-bit integer")
		return
	}
	id := int32(id64)
	sv := s.serving.Load()
	g := sv.model.Graph()
	if id < 0 || int(id) >= g.NumObjects() {
		httpError(w, http.StatusNotFound, "no such object")
		return
	}
	obj := hin.ObjectID(id)
	s.writeJSON(w, entityResponse{
		Entity:     id,
		Name:       g.Name(obj),
		Type:       g.Schema().Type(g.TypeOf(obj)).Name,
		Popularity: sv.model.Popularity(obj),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	sv := s.serving.Load()
	s.writeJSON(w, struct {
		Status   string         `json:"status"`
		Objects  int            `json:"objects"`
		Snapshot *snapshot.Info `json:"snapshot,omitempty"`
		Build    buildIdentity  `json:"build"`
	}{"ok", sv.model.Graph().NumObjects(), sv.snapInfo, s.build})
}

// ---------------------------------------------------------------- helpers

// nextRequestID issues a process-unique document id for one request,
// so concurrent requests never share an id in anything keyed by
// document (caches, logs, annotation ids).
func (s *Server) nextRequestID() string {
	return fmt.Sprintf("req-%d", s.reqSeq.Add(1))
}

// readJSON decodes a POST body, writing the error response itself on
// failure: 413 when the body exceeds MaxBodyBytes, 400 for malformed
// JSON. Method enforcement happens in route, before any handler runs.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, into interface{}) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit))
			return false
		}
		httpError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return false
	}
	return true
}

// entityID renders an entity as a nullable JSON id (NIL -> null).
func entityID(e hin.ObjectID) *int32 {
	if e == hin.NoObject {
		return nil
	}
	id := int32(e)
	return &id
}

func entityName(sv *serving, e hin.ObjectID) string {
	if e == hin.NoObject {
		return ""
	}
	return sv.model.Graph().Name(e)
}

func (s *Server) writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	writeBody(w, v, s.logger)
}

// writeBody encodes v after headers are (implicitly) sent. An encode
// failure at this point cannot change the status line — http.Error
// here would corrupt the already-started response — so it is logged
// instead.
func writeBody(w http.ResponseWriter, v interface{}, logger *log.Logger) {
	if err := json.NewEncoder(w).Encode(v); err != nil && logger != nil {
		logger.Printf("encoding response body: %v", err)
	}
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{msg})
}
