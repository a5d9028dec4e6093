package shine

import (
	"context"
	"fmt"
)

// PrecomputeMixtures eagerly builds the frozen mixture index for every
// entity of the model's entity type under the current weights, fanning
// out across Config.Workers goroutines. After it returns, Link serves
// every candidate from a frozen array and never walks meta-paths on
// the request path — the -precompute flag on `shine link`, `shine
// serve` and `shine snapshot build` calls this before linking.
//
// Safe to call concurrently with Link (readers fall back to lazy
// builds for entities not yet stored). If a weight install lands while
// precompute is running, the stale entries are discarded by the
// version check and the call reports no error; the entities it
// dropped refill lazily. Returns the first walk error encountered, if
// any.
func (m *Model) PrecomputeMixtures() error {
	entities := m.graph.ObjectsOfType(m.entityType)
	if len(entities) == 0 {
		return nil
	}
	w, ver := m.snapshotWeightsVer()
	workers := clampWorkers(m.cfg.Workers, len(entities))
	errs := make([]error, len(entities))
	parallelFor(len(entities), workers, func(i int) {
		_, errs[i] = m.mixtureFor(context.Background(), entities[i], w, ver)
	})
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("shine: precomputing mixtures: %w", err)
		}
	}
	return nil
}
