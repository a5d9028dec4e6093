package baselines

import (
	"fmt"
	"math"

	"shine/internal/corpus"
	"shine/internal/hin"
	"shine/internal/pagerank"
	"shine/internal/shine"
	"shine/internal/sparse"
)

// UWalk is the "intuitive way" Section 3.2 of the paper describes and
// rejects: estimate the entity-specific object model with plain
// random walks that follow any relation with uniform probability at
// each step, instead of meta-path constrained walks. Everything else
// matches SHINE — PageRank popularity prior, θ-smoothed object model
// over the document bag — so evaluating UWalk against SHINE isolates
// exactly what the meta-path constraints (and their learned weights)
// buy.
type UWalk struct {
	g          *hin.Graph
	cands      shine.CandidateSource
	popularity map[hin.ObjectID]float64
	generic    *corpus.GenericModel

	// steps is the walk horizon; step distributions 1..steps are
	// averaged, mirroring SHINE's mixture over paths of length ≤ 4.
	steps int
	theta float64
	floor float64

	// cache holds per-entity walk mixtures.
	cache map[hin.ObjectID]sparse.Vector
}

// NewUWalk builds the unconstrained-walk linker. Candidates resolve
// through cands (nil builds the default trie; see candidateSource).
// steps is the walk horizon (the paper's meta-paths reach length 4);
// theta the smoothing weight.
func NewUWalk(g *hin.Graph, entityType hin.TypeID, cands shine.CandidateSource, docs *corpus.Corpus, steps int, theta float64) (*UWalk, error) {
	if steps < 1 {
		return nil, fmt.Errorf("baselines: walk horizon %d must be positive", steps)
	}
	if theta <= 0 || theta >= 1 {
		return nil, fmt.Errorf("baselines: theta %v outside (0, 1)", theta)
	}
	res, err := pagerank.Compute(g, pagerank.DefaultOptions())
	if err != nil {
		return nil, err
	}
	pop, err := pagerank.EntityPopularity(g, res.Scores, entityType)
	if err != nil {
		return nil, err
	}
	if cands, err = candidateSource(g, entityType, cands); err != nil {
		return nil, err
	}
	gen, err := corpus.EstimateGeneric(docs)
	if err != nil {
		return nil, err
	}
	return &UWalk{
		g:          g,
		cands:      cands,
		popularity: pop,
		generic:    gen,
		steps:      steps,
		theta:      theta,
		floor:      1e-12,
		cache:      make(map[hin.ObjectID]sparse.Vector),
	}, nil
}

// walkMixture averages the uniform-walk distributions after 1..steps
// hops from e. Each hop follows every outgoing link of every relation
// with equal probability.
func (u *UWalk) walkMixture(e hin.ObjectID) sparse.Vector {
	if d, ok := u.cache[e]; ok {
		return d
	}
	mix := sparse.New()
	cur := sparse.Unit(int32(e))
	for step := 0; step < u.steps; step++ {
		next := sparse.NewWithCapacity(cur.Len())
		for i, mass := range cur {
			v := hin.ObjectID(i)
			total := u.g.TotalDegree(v)
			if total == 0 {
				continue
			}
			share := mass / float64(total)
			schema := u.g.Schema()
			for rel := 0; rel < schema.NumRelations(); rel++ {
				for _, dst := range u.g.Neighbors(hin.RelationID(rel), v) {
					next.Add(int32(dst), share)
				}
			}
		}
		cur = next
		mix.AccumScaled(cur, 1/float64(u.steps))
	}
	u.cache[e] = mix
	return mix
}

// Link scores every candidate with the same joint form as SHINE but
// the unconstrained walk mixture as Pe.
func (u *UWalk) Link(doc *corpus.Document) (hin.ObjectID, error) {
	cands := u.cands.Candidates(doc.Mention)
	if len(cands) == 0 {
		return hin.NoObject, fmt.Errorf("baselines: mention %q has no candidates", doc.Mention)
	}
	best := hin.NoObject
	bestScore := math.Inf(-1)
	for _, e := range cands {
		pe := u.walkMixture(e)
		score := math.Log(math.Max(u.popularity[e], u.floor))
		for _, oc := range doc.Objects {
			pv := u.theta*pe.Get(int32(oc.Object)) + (1-u.theta)*u.generic.Prob(oc.Object)
			score += float64(oc.Count) * math.Log(math.Max(pv, u.floor))
		}
		if score > bestScore || (score == bestScore && e < best) {
			best, bestScore = e, score
		}
	}
	return best, nil
}
