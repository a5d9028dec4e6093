// Request-lifecycle middleware: per-request deadlines, admission
// control with a bounded wait queue, panic recovery and readiness.
// The serving path (POST /v1/link and friends) fronts meta-path walk
// work that is expensive under load; this file is what stands between
// a traffic spike and an unbounded pile-up of in-flight walks.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"

	"shine/internal/obs"
)

// Lifecycle metric names. Exported as constants so tests and
// dashboards reference the exact strings the server writes.
const (
	// MetricPanics counts handler panics converted into 500s by the
	// recovery middleware.
	MetricPanics = "shine_panics_total"
	// MetricRequestsShed counts requests rejected with 429 because the
	// in-flight limit and its wait queue were both full.
	MetricRequestsShed = "shine_requests_shed_total"
	// MetricRequestsCanceled counts requests aborted by their own
	// context — client disconnects and RequestTimeout deadlines alike.
	MetricRequestsCanceled = "shine_requests_canceled_total"
	// MetricRequestsInFlight gauges requests currently admitted past
	// the semaphore (0 forever when MaxInFlight is unset).
	MetricRequestsInFlight = "shine_requests_in_flight"
	// MetricRequestsQueued gauges requests waiting for admission.
	MetricRequestsQueued = "shine_requests_queued"
	// MetricReady gauges readiness: 1 when /v1/readyz reports ready.
	MetricReady = "shine_ready"
)

// StatusClientClosedRequest is the non-standard status written when
// the client abandons a request before a response exists (nginx's
// 499). The client never sees it; it exists so logs and the 4xx/5xx
// counters classify disconnects apart from server faults.
const StatusClientClosedRequest = 499

// lifecycleMetrics bundles the request-lifecycle instruments. All are
// created at New so every series appears in the exposition from the
// first scrape, whether or not the corresponding option is enabled.
type lifecycleMetrics struct {
	panics   *obs.Counter
	shed     *obs.Counter
	canceled *obs.Counter
	inFlight *obs.Gauge
	queued   *obs.Gauge
	ready    *obs.Gauge
}

func newLifecycleMetrics(reg *obs.Registry) *lifecycleMetrics {
	return &lifecycleMetrics{
		panics:   reg.Counter(MetricPanics),
		shed:     reg.Counter(MetricRequestsShed),
		canceled: reg.Counter(MetricRequestsCanceled),
		inFlight: reg.Gauge(MetricRequestsInFlight),
		queued:   reg.Gauge(MetricRequestsQueued),
		ready:    reg.Gauge(MetricReady),
	}
}

// admission is the outcome of limiter.acquire.
type admission int

const (
	// admitOK means the request holds a semaphore slot; the caller
	// must release it.
	admitOK admission = iota
	// admitShed means the limit and the wait queue were both full.
	admitShed
	// admitCanceled means the request's context ended while queued.
	admitCanceled
)

// limiter is the admission semaphore: at most cap(sem) requests
// execute concurrently, at most maxQueue more wait for a slot, and
// everything beyond that is shed immediately. Waiting requests leave
// the queue when their context ends, so a timed-out client never
// occupies a queue slot it can no longer use.
type limiter struct {
	sem      chan struct{}
	queued   atomic.Int64
	maxQueue int64
	metrics  *lifecycleMetrics
}

func newLimiter(maxInFlight, maxQueued int, lm *lifecycleMetrics) *limiter {
	return &limiter{
		sem:      make(chan struct{}, maxInFlight),
		maxQueue: int64(maxQueued),
		metrics:  lm,
	}
}

// acquire admits the request, queues it, or sheds it. On admitOK the
// caller must call release exactly once.
func (l *limiter) acquire(ctx context.Context) admission {
	select {
	case l.sem <- struct{}{}:
		l.metrics.inFlight.Add(1)
		return admitOK
	default:
	}
	if l.queued.Add(1) > l.maxQueue {
		l.queued.Add(-1)
		return admitShed
	}
	l.metrics.queued.Add(1)
	defer func() {
		l.queued.Add(-1)
		l.metrics.queued.Add(-1)
	}()
	select {
	case l.sem <- struct{}{}:
		l.metrics.inFlight.Add(1)
		return admitOK
	case <-ctx.Done():
		return admitCanceled
	}
}

func (l *limiter) release() {
	l.metrics.inFlight.Add(-1)
	<-l.sem
}

// guard wraps a model-serving handler with the request lifecycle:
// the per-request deadline (RequestTimeout layered onto whatever
// deadline the client's own context already carries) and admission
// control. Ops endpoints (healthz, readyz, metrics, pprof) are not
// guarded — shedding a readiness probe under load would turn
// overload into an outage.
func (s *Server) guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.requestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		if s.limiter != nil {
			switch s.limiter.acquire(r.Context()) {
			case admitShed:
				s.lifecycle.shed.Inc()
				// One deadline's worth of backoff is the soonest a
				// retry could plausibly find a free slot.
				w.Header().Set("Retry-After", retryAfterSeconds(s.requestTimeout))
				httpError(w, http.StatusTooManyRequests, "server at capacity; retry later")
				return
			case admitCanceled:
				s.respondCtxError(w, r.Context().Err())
				return
			}
			defer s.limiter.release()
		}
		h(w, r)
	}
}

// retryAfterSeconds renders a Retry-After value: the request timeout
// rounded up to a whole second, floored at 1.
func retryAfterSeconds(timeout time.Duration) string {
	secs := int(timeout / time.Second)
	if timeout%time.Second != 0 {
		secs++
	}
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}

// isCtxError reports whether err was caused by the request context
// ending (deadline or client disconnect).
func isCtxError(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// respondCtxError converts a context-caused failure into its
// response: 503 with the timeout in the body when the server's
// deadline fired, 499 (client closed request) when the client is
// gone. Both count in shine_requests_canceled_total.
func (s *Server) respondCtxError(w http.ResponseWriter, err error) {
	s.lifecycle.canceled.Inc()
	if errors.Is(err, context.DeadlineExceeded) {
		msg := "request timed out"
		if s.requestTimeout > 0 {
			msg = fmt.Sprintf("request timed out after %v", s.requestTimeout)
		}
		httpError(w, http.StatusServiceUnavailable, msg)
		return
	}
	// The client is no longer listening; the status exists for logs
	// and counters only.
	httpError(w, StatusClientClosedRequest, "client closed request")
}

// SetReady overrides the readiness reported by GET /v1/readyz. New
// returns a ready server; a deployment flips readiness off before
// maintenance, lets the load balancer drain, and flips it back after.
// Liveness (GET /v1/healthz) is unaffected — the process is alive
// either way.
func (s *Server) SetReady(ready bool) {
	s.ready.Store(ready)
	if ready {
		s.lifecycle.ready.Set(1)
	} else {
		s.lifecycle.ready.Set(0)
	}
}

// handleReadyz is the readiness probe: 200 when the server should
// receive traffic, 503 while it should be drained. Distinct from
// /v1/healthz (liveness): a not-ready server is healthy — restarting
// it would only lose the warm mixture index.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := s.serving.Load().model.MixtureStats()
	body := struct {
		Status string `json:"status"`
		// Mixtures is the frozen entity-mixture index occupancy — how
		// much of the serving path is precomputed at the current
		// weight version (reset to 0 by weight installs and rebinds).
		Mixtures int `json:"mixtures"`
	}{"ready", st.Entries}
	if !s.ready.Load() {
		body.Status = "unavailable"
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		writeBody(w, body, s.logger)
		return
	}
	s.writeJSON(w, body)
}

// recoverPanic converts a handler panic into a 500 (when no response
// has started), counts it and logs the stack. The process survives:
// one poisoned request must not kill the other ten thousand in
// flight.
func (s *Server) recoverPanic(w *statusWriter, r *http.Request) {
	p := recover()
	if p == nil {
		return
	}
	// http.ErrAbortHandler is net/http's sanctioned way to abort a
	// response; re-panic so the server handles it as designed.
	if err, ok := p.(error); ok && errors.Is(err, http.ErrAbortHandler) {
		panic(p)
	}
	s.lifecycle.panics.Inc()
	if s.logger != nil {
		s.logger.Printf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
	}
	if !w.wrote {
		httpError(w, http.StatusInternalServerError, "internal server error")
	}
}
