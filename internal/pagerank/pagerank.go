// Package pagerank computes the whole-network PageRank scores that
// SHINE's entity popularity model is built on (Section 3.1 of the
// paper). Object types are ignored: every link, in either direction,
// propagates importance. The recurrence is
//
//	pr = λ·ip + (1−λ)·B·pr          (Formula 6)
//
// with ip the uniform initial score vector and B the column-normalised
// link matrix. The paper assumes every object has at least one
// outgoing link; real and synthetic networks occasionally violate
// that, so dangling objects redistribute their mass uniformly — the
// standard PageRank fix, which preserves Σpr = 1.
//
// Compute is a CSR-native pull-based power-iteration kernel: each
// iteration computes every object's next score from its in-neighbors'
// current scores by iterating the graph's CSR rows directly, fanned
// out across Options.Workers goroutines. Because every link in the
// network is stored together with its inverse, an object's in-neighbor
// multiset across all directed links equals its out-neighbor multiset
// across all relations, so the kernel pulls along the same rows the
// push formulation scatters from — with no per-edge closure and no
// write contention (each worker writes only its own vertex range).
// The dangling-mass and convergence-delta sums use blocked fixed-order
// reductions (internal/par), so the score vector is bit-for-bit
// identical for any worker count. ReferenceCompute retains the
// original edge-push kernel as a testing oracle.
package pagerank

import (
	"errors"
	"fmt"
	"math"

	"shine/internal/hin"
	"shine/internal/par"
)

// Options configures a PageRank computation. The zero value is not
// valid; use DefaultOptions as a base.
type Options struct {
	// Lambda balances the initial score against the propagated score
	// (λ in Formula 6). The paper sets λ = 0.2 in all experiments.
	Lambda float64
	// Tolerance is the L1-change threshold below which iteration
	// stops.
	Tolerance float64
	// MaxIterations caps the power iteration.
	MaxIterations int
	// Workers is the number of goroutines the per-iteration vertex
	// sweep fans out to; 0 selects GOMAXPROCS. The kernel's blocked
	// fixed-order reductions make the score vector bit-for-bit
	// identical for every Workers value. Like shine.Config.Workers it
	// is an execution knob, not model state, and is excluded from
	// saved models.
	Workers int `json:"-"`
	// Warm, when non-nil, is the starting iterate for the power
	// iteration instead of the uniform vector — typically the
	// converged scores of a previous, slightly different revision of
	// the graph. It may be shorter than the graph (objects past its
	// end start at zero) and is renormalised to sum to 1.
	// Warm-starting changes the iteration path, not the fixed point:
	// the result still converges to the same Tolerance. Compute (the
	// pagerank backend) and the ppr backend read it; degree (one pass)
	// and hits ignore it. Execution state, not model state; excluded
	// from saved models.
	Warm []float64 `json:"-"`
}

// DefaultOptions returns the paper's configuration: λ = 0.2, with a
// tight convergence tolerance. Workers defaults to 0 (GOMAXPROCS).
func DefaultOptions() Options {
	return Options{Lambda: 0.2, Tolerance: 1e-10, MaxIterations: 200}
}

// Validate reports the first configuration problem, or nil. Compute
// and every Centrality backend call it; shine.Config.Validate
// delegates to it so a bad option set is caught at config time, not
// first compute.
func (o Options) Validate() error {
	// NaN fails every range comparison, so test for it explicitly:
	// NaN < 0 and NaN > 1 are both false.
	if math.IsNaN(o.Lambda) || o.Lambda < 0 || o.Lambda > 1 {
		return fmt.Errorf("pagerank: lambda %v outside [0, 1]", o.Lambda)
	}
	if math.IsNaN(o.Tolerance) || math.IsInf(o.Tolerance, 0) || o.Tolerance <= 0 {
		return fmt.Errorf("pagerank: tolerance %v must be positive and finite", o.Tolerance)
	}
	if o.MaxIterations <= 0 {
		return fmt.Errorf("pagerank: max iterations %d must be positive", o.MaxIterations)
	}
	if o.Workers < 0 {
		return fmt.Errorf("pagerank: workers %d negative (0 = GOMAXPROCS)", o.Workers)
	}
	return nil
}

// Result holds the converged PageRank vector and iteration metadata.
type Result struct {
	// Scores is indexed by ObjectID; Σ Scores = 1.
	Scores []float64
	// Iterations is the number of power iterations performed.
	Iterations int
	// Delta is the final L1 change between successive iterations.
	Delta float64
	// Converged reports whether Delta fell below the tolerance before
	// MaxIterations was reached.
	Converged bool
}

// sweepBlock is the fixed vertex-block size of the pull sweep. Each
// block's delta partial is accumulated serially and the partials merge
// in block order, so — like the EM reductions — the summation tree
// depends only on |V|, never on the worker count. Larger than
// par.DefaultBlock because a vertex touches many edges: scheduling
// overhead amortises over whole adjacency rows.
const sweepBlock = 512

// kernel bundles everything one pull sweep needs: the inverted column
// norms, the dangling-object list and the flat CSR row snapshots.
type kernel struct {
	n       int
	lambda  float64
	initial float64
	workers int

	// invOutDeg is 1/N_v, or 0 for dangling objects — the column norms
	// of B inverted once so the inner loop multiplies instead of
	// dividing per edge. Dangling objects (1/N_v undefined) are listed
	// by index so iterations never rescan all of V for them.
	invOutDeg []float64
	dangling  []int32

	nrel int
	offs [][]int32
	adjs [][]hin.ObjectID
}

func newKernel(g *hin.Graph, opts Options) *kernel {
	n := g.NumObjects()
	k := &kernel{
		n:       n,
		lambda:  opts.Lambda,
		initial: 1.0 / float64(n),
		workers: par.ClampWorkers(opts.Workers, par.NumBlocks(n, sweepBlock)),
	}

	// The out-degrees are shared from the graph's Build-time cache.
	outDeg := g.TotalDegrees()
	k.invOutDeg = make([]float64, n)
	for v, d := range outDeg {
		if d == 0 {
			k.dangling = append(k.dangling, int32(v))
		} else {
			k.invOutDeg[v] = 1 / float64(d)
		}
	}

	// Snapshot every relation's CSR rows up front; the sweep indexes
	// these flat arrays with no per-edge or per-row calls.
	k.nrel = g.NumRelations()
	k.offs = make([][]int32, k.nrel)
	k.adjs = make([][]hin.ObjectID, k.nrel)
	for r := 0; r < k.nrel; r++ {
		k.offs[r], k.adjs[r] = g.Rows(hin.RelationID(r))
	}
	return k
}

// danglingMass sums pr over the dangling-object list. The list is
// typically tiny; the blocked fixed-order reduction keeps the sum
// deterministic, and parallel when it is not.
func (k *kernel) danglingMass(pr []float64) float64 {
	return par.ReduceSum(len(k.dangling), par.DefaultBlock, k.workers, func(lo, hi int) float64 {
		s := 0.0
		for _, v := range k.dangling[lo:hi] {
			s += pr[v]
		}
		return s
	})
}

// iterate performs one pull sweep pr → next and returns the L1 change.
func (k *kernel) iterate(pr, next []float64) float64 {
	// Mass from dangling objects is spread uniformly.
	base := k.lambda*k.initial + (1-k.lambda)*k.danglingMass(pr)/float64(k.n)

	// Pull sweep: next[v] = base + (1−λ)·Σ_rel Σ_{u∈N_rel(v)}
	// pr[u]·invOutDeg[u]. Each vertex's sum accumulates serially in
	// fixed (relation, adjacency) order, and the per-block L1-delta
	// partials merge in block order — one fused parallel pass.
	return par.ReduceSum(k.n, sweepBlock, k.workers, func(lo, hi int) float64 {
		d := 0.0
		for v := lo; v < hi; v++ {
			sum := 0.0
			for r := 0; r < k.nrel; r++ {
				off := k.offs[r]
				for _, u := range k.adjs[r][off[v]:off[v+1]] {
					sum += pr[u] * k.invOutDeg[u]
				}
			}
			nv := base + (1-k.lambda)*sum
			next[v] = nv
			d += math.Abs(nv - pr[v])
		}
		return d
	})
}

// Compute runs pull-based power iteration over the whole graph and
// returns the PageRank score of every object. The result is
// bit-identical for any Options.Workers value and matches
// ReferenceCompute up to floating-point summation-order differences
// (≤ ~1e-12 in practice; the equivalence tests pin 1e-9 L∞). With
// Options.Warm set the iteration starts from the supplied vector
// instead of the uniform one and typically converges in fewer sweeps
// — the popularity refresh after a graph delta.
func Compute(g *hin.Graph, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	n := g.NumObjects()
	if n == 0 {
		return nil, errors.New("pagerank: empty graph")
	}
	k := newKernel(g, opts)

	pr := make([]float64, n)
	next := make([]float64, n)
	if opts.Warm != nil {
		if err := warmInit(pr, opts.Warm); err != nil {
			return nil, err
		}
	} else {
		for v := range pr {
			pr[v] = k.initial
		}
	}

	res := &Result{}
	for iter := 0; iter < opts.MaxIterations; iter++ {
		delta := k.iterate(pr, next)
		pr, next = next, pr
		res.Iterations = iter + 1
		res.Delta = delta
		if delta < opts.Tolerance {
			res.Converged = true
			break
		}
	}
	res.Scores = pr
	return res, nil
}

// warmInit fills pr from a previous score vector and renormalises so
// Σpr = 1 — the invariant the dangling-mass redistribution relies on.
// Objects past the vector's end (newly appended ones) start at score
// zero rather than 1/n: padding with the uniform score would rescale
// every carried-over coordinate and smear a small, local graph delta
// into a dense global residual, while zero-padding keeps the old
// coordinates (already at their old fixed point) essentially exact.
// Serial and order-fixed, so warm-started runs stay deterministic
// across worker counts.
func warmInit(pr, warm []float64) error {
	if len(warm) > len(pr) {
		return fmt.Errorf("pagerank: warm vector has %d scores for %d objects", len(warm), len(pr))
	}
	sum := 0.0
	for i, x := range warm {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return fmt.Errorf("pagerank: warm score %d is %v", i, x)
		}
		pr[i] = x
		sum += x
	}
	for i := len(warm); i < len(pr); i++ {
		pr[i] = 0
	}
	if sum <= 0 {
		return errors.New("pagerank: warm vector sums to zero")
	}
	inv := 1 / sum
	for i := range pr {
		pr[i] *= inv
	}
	return nil
}

// ReferenceCompute is the original serial edge-push kernel, retained
// as the testing oracle for Compute (the metapath.ReferenceWalk
// pattern): it visits every directed link through Graph.ForEachLink
// and scatters pr[src]/N_src into next[dst]. The pull kernel must
// match it within tight floating-point tolerance on any graph; the
// two differ only in per-vertex summation order.
func ReferenceCompute(g *hin.Graph, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	n := g.NumObjects()
	if n == 0 {
		return nil, errors.New("pagerank: empty graph")
	}

	// Precompute out-degrees once; they are the column norms of B.
	outDeg := make([]int, n)
	for v := 0; v < n; v++ {
		outDeg[v] = g.TotalDegree(hin.ObjectID(v))
	}

	initial := 1.0 / float64(n)
	pr := make([]float64, n)
	next := make([]float64, n)
	for v := range pr {
		pr[v] = initial
	}

	res := &Result{}
	for iter := 0; iter < opts.MaxIterations; iter++ {
		// Mass from dangling objects is spread uniformly.
		dangling := 0.0
		for v := 0; v < n; v++ {
			if outDeg[v] == 0 {
				dangling += pr[v]
			}
		}
		base := opts.Lambda*initial + (1-opts.Lambda)*dangling/float64(n)
		for v := range next {
			next[v] = base
		}
		g.ForEachLink(func(_ hin.RelationID, src, dst hin.ObjectID) {
			next[dst] += (1 - opts.Lambda) * pr[src] / float64(outDeg[src])
		})

		delta := 0.0
		for v := range pr {
			delta += math.Abs(next[v] - pr[v])
		}
		pr, next = next, pr
		res.Iterations = iter + 1
		res.Delta = delta
		if delta < opts.Tolerance {
			res.Converged = true
			break
		}
	}
	res.Scores = pr
	return res, nil
}

// EntityPopularity normalises the PageRank scores over the entity set
// E (all objects of entityType), yielding the paper's entity
// popularity model P(e) = pr(e) / Σ_{e'∈E} pr(e') (Formula 7). The
// returned map contains one entry per entity and sums to 1.
func EntityPopularity(g *hin.Graph, scores []float64, entityType hin.TypeID) (map[hin.ObjectID]float64, error) {
	if len(scores) != g.NumObjects() {
		return nil, fmt.Errorf("pagerank: %d scores for %d objects", len(scores), g.NumObjects())
	}
	entities := g.ObjectsOfType(entityType)
	if len(entities) == 0 {
		return nil, fmt.Errorf("pagerank: no objects of entity type %d", entityType)
	}
	total := 0.0
	for _, e := range entities {
		total += scores[e]
	}
	pop := make(map[hin.ObjectID]float64, len(entities))
	if total == 0 {
		// Degenerate but possible with an all-isolated entity type:
		// fall back to the uniform popularity model (Formula 5).
		u := 1.0 / float64(len(entities))
		for _, e := range entities {
			pop[e] = u
		}
		return pop, nil
	}
	for _, e := range entities {
		pop[e] = scores[e] / total
	}
	return pop, nil
}

// UniformPopularity returns the uniform popularity model P(e) = 1/|E|
// (Formula 5), used by the paper's "-eom" ablations.
func UniformPopularity(g *hin.Graph, entityType hin.TypeID) (map[hin.ObjectID]float64, error) {
	entities := g.ObjectsOfType(entityType)
	if len(entities) == 0 {
		return nil, fmt.Errorf("pagerank: no objects of entity type %d", entityType)
	}
	u := 1.0 / float64(len(entities))
	pop := make(map[hin.ObjectID]float64, len(entities))
	for _, e := range entities {
		pop[e] = u
	}
	return pop, nil
}
