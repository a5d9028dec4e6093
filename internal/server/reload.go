// Zero-downtime hot swap: POST /v1/admin/reload (or SIGHUP in the
// CLI) re-reads the snapshot artifact, validates and materialises it
// entirely off the request path, and atomically swaps the serving
// generation. In-flight requests finish on the generation they
// started on; a failed load leaves the old generation serving.
package server

import (
	"fmt"
	"net/http"
	"time"

	"shine/internal/obs"
	"shine/internal/snapshot"
)

// Snapshot metric names, all in the shared registry.
const (
	// MetricSnapshotLoadSeconds is the wall time of the last
	// successful artifact load (read + validate + materialise).
	MetricSnapshotLoadSeconds = "shine_snapshot_load_seconds"
	// MetricSnapshotBytes is the size of the currently serving
	// artifact.
	MetricSnapshotBytes = "shine_snapshot_bytes"
	// MetricSnapshotSwaps counts successful hot swaps.
	MetricSnapshotSwaps = "shine_snapshot_swaps_total"
	// MetricSnapshotLoadFailures counts reloads that failed and left
	// the previous generation serving.
	MetricSnapshotLoadFailures = "shine_snapshot_load_failures_total"
)

type snapshotMetrics struct {
	loadSeconds *obs.Gauge
	bytes       *obs.Gauge
	swaps       *obs.Counter
	failures    *obs.Counter
}

func newSnapshotMetrics(reg *obs.Registry) *snapshotMetrics {
	return &snapshotMetrics{
		loadSeconds: reg.Gauge(MetricSnapshotLoadSeconds),
		bytes:       reg.Gauge(MetricSnapshotBytes),
		swaps:       reg.Counter(MetricSnapshotSwaps),
		failures:    reg.Counter(MetricSnapshotLoadFailures),
	}
}

// errReloadInFlight marks a reload rejected because another one is
// already running; handleReload maps it to 409.
var errReloadInFlight = fmt.Errorf("server: a reload is already in flight")

// Reload re-reads the configured snapshot artifact and hot-swaps the
// serving generation. The expensive work — reading, checksumming,
// materialising the model, rebuilding the derived indexes — happens
// before any serving state changes; the swap itself is install's one
// atomic pointer store bracketed by a readiness flip. On any failure
// the old generation keeps serving untouched and the failure counter
// increments.
func (s *Server) Reload() (snapshot.Info, error) {
	if s.snapshotPath == "" {
		return snapshot.Info{}, fmt.Errorf("server: no snapshot path configured (set Options.SnapshotPath)")
	}
	if !s.reloadMu.TryLock() {
		return snapshot.Info{}, errReloadInFlight
	}
	defer s.reloadMu.Unlock()

	start := time.Now()
	info, sv, err := s.loadGeneration()
	if err != nil {
		s.snap.failures.Inc()
		return snapshot.Info{}, err
	}

	elapsed := time.Since(start).Seconds()
	s.install(sv)
	s.snap.loadSeconds.Set(elapsed)
	s.snap.bytes.Set(float64(info.Bytes))
	s.snap.swaps.Inc()
	if s.logger != nil {
		s.logger.Printf("snapshot reload: swapped in %s (%.3fs)", info, elapsed)
	}
	return info, nil
}

// loadGeneration does everything short of the swap: artifact read,
// model materialisation and the derived generation.
func (s *Server) loadGeneration() (snapshot.Info, *serving, error) {
	snap, err := snapshot.ReadFile(s.snapshotPath)
	if err != nil {
		return snapshot.Info{}, nil, fmt.Errorf("server: reading snapshot %s: %w", s.snapshotPath, err)
	}
	m, err := snap.Model()
	if err != nil {
		return snapshot.Info{}, nil, fmt.Errorf("server: materialising snapshot %s: %w", s.snapshotPath, err)
	}
	// Artifacts do not carry the fuzzy distance; the new generation
	// keeps the serving one's, so -fuzzy survives the hot swap.
	if err := m.SetFuzzyDistance(s.serving.Load().model.FuzzyDistance()); err != nil {
		return snapshot.Info{}, nil, fmt.Errorf("server: %w", err)
	}
	info := snap.Info()
	sv, err := s.buildServing(m, &info)
	if err != nil {
		return snapshot.Info{}, nil, err
	}
	return info, sv, nil
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	info, err := s.Reload()
	if err != nil {
		if err == errReloadInFlight {
			httpError(w, http.StatusConflict, err.Error())
			return
		}
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.writeJSON(w, struct {
		Status   string        `json:"status"`
		Snapshot snapshot.Info `json:"snapshot"`
	}{"reloaded", info})
}
