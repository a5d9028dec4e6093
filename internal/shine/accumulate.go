package shine

import (
	"math"

	"shine/internal/par"
)

// Deterministic fan-out primitives for the training pipeline.
//
// The EM learner's hot loops are sums over mentions (the objective of
// Formula 22 and the gradient of Formula 24). These wrappers delegate
// to the shared internal/par primitives with a fixed 32-item block
// size; because the block boundaries and merge order depend only on
// the item count, the learned weights are bit-for-bit identical for
// any Workers value (see the par package docs for the full argument).

// reduceBlockSize is the fixed number of items per reduction block.
// It must never change: existing golden determinism tests pin the
// exact summation tree it induces.
const reduceBlockSize = par.DefaultBlock

// clampWorkers resolves a requested worker count against n work
// items; see par.ClampWorkers.
func clampWorkers(workers, n int) int {
	return par.ClampWorkers(workers, n)
}

// workers returns the model's effective training fan-out width.
func (m *Model) workers() int {
	return clampWorkers(m.cfg.Workers, math.MaxInt)
}

// parallelFor runs fn(i) for every i in [0, n) on up to workers
// goroutines with dynamic scheduling; see par.For.
func parallelFor(n, workers int, fn func(i int)) {
	par.For(n, workers, fn)
}

// reduceSum computes Σ compute(block) over [0, n) with block partials
// merged in block-index order. Bit-for-bit identical for any worker
// count.
func reduceSum(n, workers int, compute func(lo, hi int) float64) float64 {
	return par.ReduceSum(n, reduceBlockSize, workers, compute)
}

// reduceVecSum is reduceSum for dim-dimensional accumulator vectors;
// see par.ReduceVecSum.
func reduceVecSum(n, dim, workers int, compute func(lo, hi int, acc []float64)) []float64 {
	return par.ReduceVecSum(n, reduceBlockSize, dim, workers, compute)
}
