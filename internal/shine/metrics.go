package shine

import (
	"time"

	"shine/internal/hin"
	"shine/internal/obs"
)

// Metric names recorded by an instrumented Model. Exported as
// constants so the server, tests and dashboards reference the exact
// strings the model writes.
const (
	// MetricLinkSeconds is the latency histogram of Link/LinkNIL calls.
	MetricLinkSeconds = "shine_link_seconds"
	// MetricLinkCandidates is the candidate-set-size histogram of
	// successful link calls (including the NIL pseudo-candidate in NIL
	// mode).
	MetricLinkCandidates = "shine_link_candidates"
	// MetricLinkTotal counts Link/LinkNIL calls.
	MetricLinkTotal = "shine_link_total"
	// MetricLinkFailures counts link calls that returned an error
	// (no candidates, walk failures).
	MetricLinkFailures = "shine_link_failures_total"
	// MetricLinkNIL counts NIL decisions — mentions resolved to no
	// entity.
	MetricLinkNIL = "shine_link_nil_total"
	// MetricEMIterations counts EM iterations across Learn calls.
	MetricEMIterations = "shine_em_iterations_total"
	// MetricEMIterationSeconds is the per-EM-iteration duration
	// histogram.
	MetricEMIterationSeconds = "shine_em_iteration_seconds"
	// MetricEMPrepareSeconds is the per-Learn corpus preparation
	// duration histogram — the meta-path walk precompute that
	// dominates cold-cache training and fans out across
	// Config.Workers goroutines.
	MetricEMPrepareSeconds = "shine_em_prepare_seconds"
	// MetricEMLogLikelihood is the M-step objective J (the expected
	// complete-data log-likelihood term of Formula 22) after the most
	// recent EM iteration.
	MetricEMLogLikelihood = "shine_em_log_likelihood"
	// MetricCentralityBackend is an info-style gauge: the series
	// labelled with the serving model's centrality backend name
	// (backend="pagerank"|"degree"|"hits"|"ppr") is set to 1.
	MetricCentralityBackend = "shine_centrality_backend"
	// MetricCentralitySeconds / MetricCentralityIterations are the
	// wall-clock and iteration count of the most recent popularity
	// run — at build, or the refresh of the update that produced the
	// serving generation — whichever backend produced it; 0 under the
	// uniform popularity model.
	MetricCentralitySeconds    = "shine_centrality_seconds"
	MetricCentralityIterations = "shine_centrality_iterations"
	// MetricGraphBuildSeconds is the wall-clock of loading and
	// building the immutable CSR graph, recorded by `shine serve` at
	// startup.
	MetricGraphBuildSeconds = "shine_graph_build_seconds"
	// MetricMixtureEntries is the number of candidate entities with a
	// frozen mixture cached at the current weight version.
	MetricMixtureEntries = "shine_mixture_entries"
	// MetricMixtureHits / MetricMixtureMisses count mixture-index
	// lookups on the serving path.
	MetricMixtureHits   = "shine_mixture_hits_total"
	MetricMixtureMisses = "shine_mixture_misses_total"
	// MetricMixtureBuilds counts mixtures computed, lazily or via
	// PrecomputeMixtures.
	MetricMixtureBuilds = "shine_mixture_builds_total"
	// MetricMixtureInvalidations counts full index flushes (weight
	// installs).
	MetricMixtureInvalidations = "shine_mixture_invalidations_total"
	// MetricCandidatesLookups counts serving-path candidate lookups
	// (one per linked/explained mention).
	MetricCandidatesLookups = "shine_candidates_lookups_total"
	// MetricCandidatesFuzzy counts lookups that fell back to
	// bounded-edit-distance retrieval after the exact rules came up
	// empty.
	MetricCandidatesFuzzy = "shine_candidates_fuzzy_total"
	// MetricCandidatesSeconds is the candidate-lookup latency
	// histogram, fuzzy fallback included.
	MetricCandidatesSeconds = "shine_candidates_seconds"
	// MetricStreamDocs counts documents emitted by LinkStream
	// pipelines (results the consumer actually received; documents
	// discarded by cancellation are not counted).
	MetricStreamDocs = "shine_stream_docs_total"
	// MetricStreamInFlight gauges documents currently inside a
	// LinkStream pipeline — dispatched but not yet emitted (or
	// discarded). Bounded by 2×workers per stream by construction.
	MetricStreamInFlight = "shine_stream_inflight"
	// MetricStreamSeconds is the per-document pipeline residency
	// histogram: dispatch to emission, queueing and reordering
	// included. Contrast with shine_link_seconds, which times only
	// the link computation itself.
	MetricStreamSeconds = "shine_stream_seconds"
)

// candidateBuckets bound the candidate-set-size histogram; ambiguity
// in real networks is small-integer-valued with a heavy tail.
var candidateBuckets = []float64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89}

// modelMetrics bundles the model's instruments. A nil *modelMetrics
// is valid and records nothing, so every hot path pays one pointer
// check when uninstrumented.
type modelMetrics struct {
	linkSeconds    *obs.Histogram
	linkCandidates *obs.Histogram
	linkTotal      *obs.Counter
	linkFailures   *obs.Counter
	linkNIL        *obs.Counter
	emIterations   *obs.Counter
	emIterSeconds  *obs.Histogram
	emPrepSeconds  *obs.Histogram
	emLogLik       *obs.Gauge
	cenSeconds     *obs.Gauge
	cenIterations  *obs.Gauge
	candLookups    *obs.Counter
	candFuzzy      *obs.Counter
	candSeconds    *obs.Histogram
	streamDocs     *obs.Counter
	streamInFlight *obs.Gauge
	streamSeconds  *obs.Histogram
}

// SetMetrics instruments the model against a registry: link latency,
// candidate-set sizes, NIL decisions and failures are recorded per
// call, EM iterations per Learn, and the walker cache is registered
// as a collector so its hit/miss/eviction counters appear in the
// registry's exposition. A nil registry removes instrumentation.
//
// Call before serving traffic or learning; SetMetrics must not race
// with concurrent Link calls. Calling it again with the same registry
// is idempotent.
func (m *Model) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		m.metrics = nil
		return
	}
	reg.Register(m.walker)
	reg.Register(&m.mixtures)
	m.metrics = &modelMetrics{
		linkSeconds:    reg.Histogram(MetricLinkSeconds, nil),
		linkCandidates: reg.Histogram(MetricLinkCandidates, candidateBuckets),
		linkTotal:      reg.Counter(MetricLinkTotal),
		linkFailures:   reg.Counter(MetricLinkFailures),
		linkNIL:        reg.Counter(MetricLinkNIL),
		emIterations:   reg.Counter(MetricEMIterations),
		emIterSeconds:  reg.Histogram(MetricEMIterationSeconds, nil),
		emPrepSeconds:  reg.Histogram(MetricEMPrepareSeconds, nil),
		emLogLik:       reg.Gauge(MetricEMLogLikelihood),
		cenSeconds:     reg.Gauge(MetricCentralitySeconds),
		cenIterations:  reg.Gauge(MetricCentralityIterations),
		candLookups:    reg.Counter(MetricCandidatesLookups),
		candFuzzy:      reg.Counter(MetricCandidatesFuzzy),
		candSeconds:    reg.Histogram(MetricCandidatesSeconds, nil),
		streamDocs:     reg.Counter(MetricStreamDocs),
		streamInFlight: reg.Gauge(MetricStreamInFlight),
		streamSeconds:  reg.Histogram(MetricStreamSeconds, nil),
	}
	// Identify the backend that produced this model's popularity
	// section; under the uniform model no centrality ran at all.
	if m.cfg.Popularity != PopularityUniform {
		reg.Gauge(MetricCentralityBackend, "backend", m.cfg.CentralityName()).Set(1)
	}
	// The offline centrality run happened during construction (or
	// during the WithDelta that produced this generation), before any
	// registry was attached; publish the recorded run so the gauges are
	// correct from the first scrape.
	m.metrics.observeCentrality(m.prSeconds, m.prIterations)
}

// UnregisterCollectors detaches the model's walker-cache and
// mixture-index collectors from the registry. The hot-swap path calls
// this on the outgoing model before SetMetrics on its replacement, so
// one scrape never sees the walker/mixture series emitted twice. The
// outgoing model keeps its instruments — in-flight requests may still
// be recording — which is harmless: instruments are shared get-or-
// create by name, only collectors are per-model.
func (m *Model) UnregisterCollectors(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Unregister(m.walker)
	reg.Unregister(&m.mixtures)
}

// observeCentrality publishes the most recent centrality run. Safe on
// a nil receiver.
func (mm *modelMetrics) observeCentrality(seconds float64, iterations int) {
	if mm == nil {
		return
	}
	mm.cenSeconds.Set(seconds)
	mm.cenIterations.Set(float64(iterations))
}

// observeLink records the outcome of one link call. Safe on a nil
// receiver (uninstrumented model).
func (mm *modelMetrics) observeLink(start time.Time, res Result, err error) {
	if mm == nil {
		return
	}
	mm.linkTotal.Inc()
	mm.linkSeconds.ObserveSince(start)
	if err != nil {
		mm.linkFailures.Inc()
		return
	}
	mm.linkCandidates.Observe(float64(len(res.Candidates)))
	if res.Entity == hin.NoObject {
		mm.linkNIL.Inc()
	}
}

// observeCandidates records one serving-path candidate lookup. Safe
// on a nil receiver.
func (mm *modelMetrics) observeCandidates(start time.Time, fuzzy bool) {
	if mm == nil {
		return
	}
	mm.candLookups.Inc()
	mm.candSeconds.ObserveSince(start)
	if fuzzy {
		mm.candFuzzy.Inc()
	}
}

// observeEMIteration records one EM iteration's duration and
// objective. Safe on a nil receiver.
func (mm *modelMetrics) observeEMIteration(start time.Time, objective float64) {
	if mm == nil {
		return
	}
	mm.emIterations.Inc()
	mm.emIterSeconds.ObserveSince(start)
	mm.emLogLik.Set(objective)
}

// observeEMPrepare records one Learn call's corpus preparation
// duration. Safe on a nil receiver.
func (mm *modelMetrics) observeEMPrepare(start time.Time) {
	if mm == nil {
		return
	}
	mm.emPrepSeconds.ObserveSince(start)
}

// streamDispatch records one document entering a LinkStream pipeline
// and returns the dispatch timestamp for the residency histogram.
// Safe on a nil receiver (returns the zero time, which streamSettle
// treats as "uninstrumented").
func (mm *modelMetrics) streamDispatch() time.Time {
	if mm == nil {
		return time.Time{}
	}
	mm.streamInFlight.Add(1)
	return time.Now()
}

// streamSettle records one document leaving a LinkStream pipeline:
// emitted to the consumer, or discarded by cancellation. Safe on a
// nil receiver.
func (mm *modelMetrics) streamSettle(start time.Time, emitted bool) {
	if mm == nil {
		return
	}
	mm.streamInFlight.Add(-1)
	if emitted {
		mm.streamDocs.Inc()
		if !start.IsZero() {
			mm.streamSeconds.ObserveSince(start)
		}
	}
}
