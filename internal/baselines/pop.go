// Package baselines implements the two comparison systems of the
// paper's evaluation (Section 5.2.1): the entity popularity baseline
// POP and the vector similarity baseline VSim.
package baselines

import (
	"fmt"

	"shine/internal/corpus"
	"shine/internal/hin"
	"shine/internal/pagerank"
	"shine/internal/shine"
	"shine/internal/surftrie"
)

// POP links every mention to its most popular candidate entity,
// using the same PageRank-based popularity model as SHINE (Formula
// 7). Context is ignored entirely.
type POP struct {
	popularity map[hin.ObjectID]float64
	cands      shine.CandidateSource
}

// candidateSource returns cands, or, when it is nil, the default
// surface-form trie over g — the same index shine.New builds — so a
// standalone baseline resolves candidates by the model's rules rather
// than through a divergent path. Pass a SHINE model's
// CandidateSource() when comparing a baseline with the model:
// eval.CompareLinkers feeds McNemar paired outcomes, which are only
// meaningful when both linkers choose from the same candidate set per
// mention.
func candidateSource(g *hin.Graph, entityType hin.TypeID, cands shine.CandidateSource) (shine.CandidateSource, error) {
	if cands != nil {
		return cands, nil
	}
	trie, err := surftrie.Build(g, entityType)
	if err != nil {
		return nil, err
	}
	return trie, nil
}

// NewPOP computes entity popularity offline and resolves candidates
// through cands (nil builds the default trie; see candidateSource).
func NewPOP(g *hin.Graph, entityType hin.TypeID, cands shine.CandidateSource, opts pagerank.Options) (*POP, error) {
	res, err := pagerank.Compute(g, opts)
	if err != nil {
		return nil, fmt.Errorf("baselines: computing popularity: %w", err)
	}
	pop, err := pagerank.EntityPopularity(g, res.Scores, entityType)
	if err != nil {
		return nil, err
	}
	if cands, err = candidateSource(g, entityType, cands); err != nil {
		return nil, err
	}
	return &POP{popularity: pop, cands: cands}, nil
}

// Link returns the most popular candidate for the document's mention.
// Ties break towards the lower entity ID, deterministically.
func (p *POP) Link(doc *corpus.Document) (hin.ObjectID, error) {
	cands := p.cands.Candidates(doc.Mention)
	if len(cands) == 0 {
		return hin.NoObject, fmt.Errorf("baselines: mention %q has no candidates", doc.Mention)
	}
	best := cands[0]
	for _, e := range cands[1:] {
		if p.popularity[e] > p.popularity[best] {
			best = e
		}
	}
	return best, nil
}
