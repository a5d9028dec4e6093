package namematch

import (
	"fmt"
	"slices"

	"shine/internal/hin"
)

// Index maps surface names to candidate entities in a heterogeneous
// information network. It blocks on the (first, last) key so that a
// lookup only scans entities that could possibly satisfy the matching
// rules, then applies the full rules to each.
type Index struct {
	byKey map[string][]indexed
	// byLast blocks on the last name alone, for the loose
	// (first-initial) matching mode.
	byLast map[string][]indexed
}

type indexed struct {
	entity hin.ObjectID
	name   Name
}

// BuildIndex parses the name of every object of entityType in g and
// indexes it. Objects whose names parse to nothing are skipped.
func BuildIndex(g *hin.Graph, entityType hin.TypeID) (*Index, error) {
	entities := g.ObjectsOfType(entityType)
	if len(entities) == 0 {
		return nil, fmt.Errorf("namematch: no objects of type %d to index", entityType)
	}
	idx := &Index{
		byKey:  make(map[string][]indexed),
		byLast: make(map[string][]indexed),
	}
	for _, e := range entities {
		n := Parse(g.Name(e))
		if n.IsEmpty() {
			continue
		}
		k := n.Key()
		idx.byKey[k] = append(idx.byKey[k], indexed{entity: e, name: n})
		idx.byLast[n.Last] = append(idx.byLast[n.Last], indexed{entity: e, name: n})
	}
	return idx, nil
}

// Candidates returns the entities whose names are compatible with the
// mention surface form under the paper's rules, in ascending ID
// order. An unknown name yields an empty slice.
func (idx *Index) Candidates(mention string) []hin.ObjectID {
	n := Parse(mention)
	if n.IsEmpty() {
		return nil
	}
	var out []hin.ObjectID
	for _, cand := range idx.byKey[n.Key()] {
		if n.Matches(cand.name) {
			out = append(out, cand.entity)
		}
	}
	return sortedUnique(out)
}

// LooseCandidates extends Candidates with first-initial matching
// ("W. Wang" finds every "Wei Wang", "Wendy Wang", …). It trades
// precision for recall; use it for citation-style mentions where
// first names are initialised.
func (idx *Index) LooseCandidates(mention string) []hin.ObjectID {
	n := Parse(mention)
	if n.IsEmpty() {
		return nil
	}
	var out []hin.ObjectID
	for _, cand := range idx.byLast[n.Last] {
		if n.MatchesLoose(cand.name) {
			out = append(out, cand.entity)
		}
	}
	return sortedUnique(out)
}

// sortedUnique sorts ascending and drops duplicate IDs, so an entity
// indexed under colliding normalized keys still appears once.
func sortedUnique(ids []hin.ObjectID) []hin.ObjectID {
	if len(ids) == 0 {
		return ids
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}
