package baselines

import (
	"fmt"

	"shine/internal/corpus"
	"shine/internal/hin"
	"shine/internal/shine"
	"shine/internal/sparse"
)

// VSim is the vector similarity baseline of Section 5.2.1: for each
// mention it builds a bag-of-objects context vector from the document
// and a profile vector from each candidate's records in the network
// (for DBLP authors: coauthors, venues, title terms and publication
// years of her publications, with frequencies), then links to the
// candidate with the highest cosine similarity.
//
// The object types considered are configurable — Table 4 of the paper
// evaluates VSim under every subset of {coauthor, venue, term, year}.
type VSim struct {
	g          *hin.Graph
	entityType hin.TypeID
	cands      shine.CandidateSource
	types      map[hin.TypeID]bool

	// profiles caches the per-entity profile vector, built lazily:
	// only candidates that actually occur are profiled.
	profiles map[hin.ObjectID]sparse.Vector
}

// NewVSim builds the baseline over the given graph for entities of
// entityType, using only profile/context objects of the given types.
// Passing no types means all types are used. Candidates resolve
// through cands (nil builds the default trie; see candidateSource).
func NewVSim(g *hin.Graph, entityType hin.TypeID, cands shine.CandidateSource, types ...hin.TypeID) (*VSim, error) {
	cands, err := candidateSource(g, entityType, cands)
	if err != nil {
		return nil, err
	}
	v := &VSim{
		g:          g,
		entityType: entityType,
		cands:      cands,
		profiles:   make(map[hin.ObjectID]sparse.Vector),
	}
	if len(types) > 0 {
		v.types = make(map[hin.TypeID]bool, len(types))
		for _, t := range types {
			v.types[t] = true
		}
	}
	return v, nil
}

// wantType reports whether objects of type t participate in vectors.
func (v *VSim) wantType(t hin.TypeID) bool {
	return v.types == nil || v.types[t]
}

// profile returns the entity's record vector: every object reachable
// via entity -> record -> object two-hop paths (e.g. author -> paper
// -> {coauthor, venue, term, year}), restricted to the selected
// types, with multiplicity; the entity itself is excluded.
func (v *VSim) profile(e hin.ObjectID) sparse.Vector {
	if p, ok := v.profiles[e]; ok {
		return p
	}
	p := sparse.New()
	schema := v.g.Schema()
	for _, rel := range schema.RelationsFrom(v.entityType) {
		for _, record := range v.g.Neighbors(rel, e) {
			for _, rel2 := range schema.RelationsFrom(v.g.TypeOf(record)) {
				to := schema.Relation(rel2).To
				if !v.wantType(to) {
					continue
				}
				for _, obj := range v.g.Neighbors(rel2, record) {
					if obj == e {
						continue
					}
					p.Add(int32(obj), 1)
				}
			}
		}
	}
	v.profiles[e] = p
	return p
}

// context builds the document's bag restricted to the selected types.
func (v *VSim) context(doc *corpus.Document) sparse.Vector {
	ctx := sparse.New()
	for _, oc := range doc.Objects {
		if v.wantType(v.g.TypeOf(oc.Object)) {
			ctx.Set(int32(oc.Object), float64(oc.Count))
		}
	}
	return ctx
}

// Link returns the candidate whose profile has the highest cosine
// similarity with the document context. Ties (including the all-zero
// case) break towards the lower entity ID.
func (v *VSim) Link(doc *corpus.Document) (hin.ObjectID, error) {
	cands := v.cands.Candidates(doc.Mention)
	if len(cands) == 0 {
		return hin.NoObject, fmt.Errorf("baselines: mention %q has no candidates", doc.Mention)
	}
	ctx := v.context(doc)
	best := cands[0]
	bestSim := ctx.Cosine(v.profile(cands[0]))
	for _, e := range cands[1:] {
		if sim := ctx.Cosine(v.profile(e)); sim > bestSim {
			best, bestSim = e, sim
		}
	}
	return best, nil
}
