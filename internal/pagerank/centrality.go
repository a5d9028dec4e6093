package pagerank

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"shine/internal/hin"
	"shine/internal/par"
)

// Centrality is a pluggable backend for the entity popularity model
// P(e). The paper fixes popularity to whole-network PageRank (Formula
// 6), but other graph centralities — degree, HITS, type-personalized
// PageRank — materially move popularity-based linking accuracy, so the
// computation sits behind this interface and the backend is selected
// by name through shine.Config. Every backend returns one score per
// object with Σ scores = 1, and every backend is deterministic: the
// score vector is bit-for-bit identical for any Options.Workers value,
// because all reductions run through the same blocked fixed-order
// machinery as the pull kernel.
type Centrality interface {
	// Name is the backend's stable identifier — recorded in snapshot
	// meta so an artifact declares which backend produced its
	// popularity section, exposed in the shine_centrality_* metrics,
	// and accepted by the -popularity CLI flag.
	Name() string
	// Compute runs the backend over the whole graph. The returned
	// Result carries the scores plus iteration metadata in the same
	// shape as the PageRank kernel's (single-pass backends report one
	// iteration and Converged = true).
	Compute(g *hin.Graph, opts Options) (*Result, error)
}

// Backend names accepted by NewCentrality. DefaultCentrality is the
// paper's configuration.
const (
	DefaultCentrality = "pagerank"

	centralityPageRank = "pagerank"
	centralityDegree   = "degree"
	centralityHITS     = "hits"
	centralityPPR      = "ppr"
)

// CentralityNames lists the available backends in presentation order.
func CentralityNames() []string {
	return []string{centralityPageRank, centralityDegree, centralityHITS, centralityPPR}
}

// ValidCentrality reports whether name is a known backend.
func ValidCentrality(name string) bool {
	switch name {
	case centralityPageRank, centralityDegree, centralityHITS, centralityPPR:
		return true
	}
	return false
}

// NewCentrality constructs a backend by name. entityType parameterises
// the backends that need one — ppr teleports only to objects of the
// entity type; the others ignore it.
func NewCentrality(name string, entityType hin.TypeID) (Centrality, error) {
	switch name {
	case centralityPageRank:
		return prCentrality{}, nil
	case centralityDegree:
		return degreeCentrality{}, nil
	case centralityHITS:
		return hitsCentrality{}, nil
	case centralityPPR:
		return pprCentrality{entityType: entityType}, nil
	}
	return nil, fmt.Errorf("pagerank: unknown centrality backend %q (have %s)",
		name, strings.Join(CentralityNames(), ", "))
}

// ----------------------------------------------------------- pagerank

// prCentrality is the paper's backend: the CSR pull kernel of Compute,
// warm-started from Options.Warm when it is set.
type prCentrality struct{}

func (prCentrality) Name() string { return centralityPageRank }

func (prCentrality) Compute(g *hin.Graph, opts Options) (*Result, error) {
	return Compute(g, opts)
}

// ------------------------------------------------------------- degree

// degreeCentrality scores every object by its total degree across all
// relations, normalised to sum 1 — near-free, because the degrees come
// from the graph's build-time cache. An all-isolated graph degrades to
// the uniform vector so Σ = 1 holds unconditionally. One pass, so
// there is nothing to warm-start: Options.Warm is ignored.
type degreeCentrality struct{}

func (degreeCentrality) Name() string { return centralityDegree }

func (degreeCentrality) Compute(g *hin.Graph, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	n := g.NumObjects()
	if n == 0 {
		return nil, errors.New("pagerank: empty graph")
	}
	deg := g.TotalDegrees()
	total := 0.0
	for _, d := range deg {
		total += float64(d)
	}
	scores := make([]float64, n)
	if total == 0 {
		u := 1 / float64(n)
		for v := range scores {
			scores[v] = u
		}
	} else {
		inv := 1 / total
		for v, d := range deg {
			scores[v] = float64(d) * inv
		}
	}
	return &Result{Scores: scores, Iterations: 1, Converged: true}, nil
}

// --------------------------------------------------------------- hits

// hitsCentrality runs Kleinberg's HITS over the whole network: two
// alternating sweeps (authority from hubs, hubs from authority) with
// L2 normalisation after each. Because every link is stored together
// with its inverse, an object's in-neighbor multiset equals its
// out-neighbor multiset, so both sweeps pull along the same CSR rows
// the PageRank kernel uses — the adjacency operator is symmetric on
// this representation, and the two score families converge to the same
// principal eigenvector; both are still iterated so the update rule is
// the textbook one. Convergence is the L1 change of the normalised
// authority vector, checked against Options.Tolerance. Options.Lambda
// is unused (HITS has no teleport). The final authority vector is
// renormalised to sum 1 so it plugs into EntityPopularity like every
// other backend. Deterministic across worker counts: the matvec, the
// sum-of-squares and the scale-and-delta passes all run through
// blocked fixed-order reductions. Options.Warm is ignored: every run
// starts from the uniform vector.
type hitsCentrality struct{}

func (hitsCentrality) Name() string { return centralityHITS }

func (hitsCentrality) Compute(g *hin.Graph, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	n := g.NumObjects()
	if n == 0 {
		return nil, errors.New("pagerank: empty graph")
	}
	k := newKernel(g, opts)

	auth := make([]float64, n)
	hub := make([]float64, n)
	next := make([]float64, n)
	init := 1 / math.Sqrt(float64(n))
	for v := range auth {
		auth[v] = init
		hub[v] = init
	}

	res := &Result{}
	for iter := 0; iter < opts.MaxIterations; iter++ {
		// Authority half-step: next = A·hub, fused with Σ next².
		ss := k.adjSum(hub, next)
		if ss == 0 {
			// A linkless graph: A·(positive vector) = 0 everywhere, so
			// HITS is undefined. Degrade to the uniform vector, as
			// EntityPopularity does for zero mass.
			u := 1 / float64(n)
			for v := range auth {
				auth[v] = u
			}
			res.Iterations = iter + 1
			res.Converged = true
			res.Scores = auth
			return res, nil
		}
		delta := k.scaleDelta(next, auth, 1/math.Sqrt(ss))
		auth, next = next, auth

		// Hub half-step: next = A·auth, same normalisation.
		ss = k.adjSum(auth, next)
		k.scaleDelta(next, hub, 1/math.Sqrt(ss))
		hub, next = next, hub

		res.Iterations = iter + 1
		res.Delta = delta
		if delta < opts.Tolerance {
			res.Converged = true
			break
		}
	}

	// L1-normalise the authority vector so Σ scores = 1. The total is
	// positive: ‖auth‖₂ = 1 and every coordinate is non-negative.
	total := par.ReduceSum(n, sweepBlock, k.workers, func(lo, hi int) float64 {
		s := 0.0
		for _, x := range auth[lo:hi] {
			s += x
		}
		return s
	})
	inv := 1 / total
	for v := range auth {
		auth[v] *= inv
	}
	res.Scores = auth
	return res, nil
}

// adjSum computes dst = A·src over all CSR rows and returns Σ dst² via
// the same fused blocked reduction the pull kernel uses, so the result
// is bit-identical for any worker count.
func (k *kernel) adjSum(src, dst []float64) float64 {
	return par.ReduceSum(k.n, sweepBlock, k.workers, func(lo, hi int) float64 {
		ss := 0.0
		for v := lo; v < hi; v++ {
			sum := 0.0
			for r := 0; r < k.nrel; r++ {
				off := k.offs[r]
				for _, u := range k.adjs[r][off[v]:off[v+1]] {
					sum += src[u]
				}
			}
			dst[v] = sum
			ss += sum * sum
		}
		return ss
	})
}

// scaleDelta scales dst by inv in place and returns the L1 distance to
// old — the normalised-vector change HITS converges on.
func (k *kernel) scaleDelta(dst, old []float64, inv float64) float64 {
	return par.ReduceSum(k.n, sweepBlock, k.workers, func(lo, hi int) float64 {
		d := 0.0
		for v := lo; v < hi; v++ {
			nv := dst[v] * inv
			dst[v] = nv
			d += math.Abs(nv - old[v])
		}
		return d
	})
}

// ---------------------------------------------------------------- ppr

// pprCentrality is type-personalized PageRank: the Formula 6
// recurrence with the uniform teleport vector replaced by the uniform
// distribution over the entity type's objects, and dangling mass
// redistributed to the same distribution (the standard personalized
// fix, which keeps Σ = 1). Importance then accumulates relative to the
// entity set rather than the whole network: a venue is important
// because entities reach it, not because of raw connectivity. Supports
// warm restarts through Options.Warm, like Compute.
type pprCentrality struct {
	entityType hin.TypeID
}

func (pprCentrality) Name() string { return centralityPPR }

func (c pprCentrality) Compute(g *hin.Graph, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	n := g.NumObjects()
	if n == 0 {
		return nil, errors.New("pagerank: empty graph")
	}
	ents := g.ObjectsOfType(c.entityType)
	if len(ents) == 0 {
		return nil, fmt.Errorf("pagerank: ppr: no objects of entity type %d to teleport to", c.entityType)
	}
	k := newKernel(g, opts)
	p0 := 1 / float64(len(ents))
	isEnt := make([]bool, n)
	for _, e := range ents {
		isEnt[e] = true
	}

	pr := make([]float64, n)
	next := make([]float64, n)
	if opts.Warm != nil {
		if err := warmInit(pr, opts.Warm); err != nil {
			return nil, err
		}
	} else {
		for _, e := range ents {
			pr[e] = p0
		}
	}

	res := &Result{}
	for iter := 0; iter < opts.MaxIterations; iter++ {
		dangling := k.danglingMass(pr)
		// Teleport (and redistributed dangling) mass lands only on the
		// entity set; elsewhere the base term is zero.
		tele := (k.lambda + (1-k.lambda)*dangling) * p0
		delta := par.ReduceSum(k.n, sweepBlock, k.workers, func(lo, hi int) float64 {
			d := 0.0
			for v := lo; v < hi; v++ {
				sum := 0.0
				for r := 0; r < k.nrel; r++ {
					off := k.offs[r]
					for _, u := range k.adjs[r][off[v]:off[v+1]] {
						sum += pr[u] * k.invOutDeg[u]
					}
				}
				nv := (1 - k.lambda) * sum
				if isEnt[v] {
					nv += tele
				}
				next[v] = nv
				d += math.Abs(nv - pr[v])
			}
			return d
		})
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
