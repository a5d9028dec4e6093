package metapath

import (
	"fmt"

	"shine/internal/hin"
)

// Enumerate lists all meta-paths starting from the given object type
// with length between 1 and maxLen, by breadth-first traversal of the
// network schema — the mechanical alternative the paper offers to
// expert-specified path sets ("these meta-paths could be determined …
// by traversing the network schema starting from the same object type
// as entity e with a length constraint using standard traversal
// methods such as the BFS algorithm", Section 3.2).
//
// Paths are returned in BFS order: all length-1 paths first (in
// relation-ID order), then length-2, and so on. Immediate
// backtracking (following a relation and then its inverse) is allowed
// — A-P-A is exactly such a path and is semantically central — so the
// number of paths grows with the schema's branching factor.
func Enumerate(s *hin.Schema, start hin.TypeID, maxLen int) ([]Path, error) {
	if maxLen < 1 {
		return nil, fmt.Errorf("metapath: maxLen %d must be at least 1", maxLen)
	}
	if start < 0 || int(start) >= s.NumTypes() {
		return nil, fmt.Errorf("metapath: invalid start type %d", start)
	}
	var out []Path
	frontier := [][]hin.RelationID{nil}
	for depth := 1; depth <= maxLen; depth++ {
		var next [][]hin.RelationID
		for _, prefix := range frontier {
			at := start
			if len(prefix) > 0 {
				at = s.Relation(prefix[len(prefix)-1]).To
			}
			for _, r := range s.RelationsFrom(at) {
				seq := make([]hin.RelationID, len(prefix)+1)
				copy(seq, prefix)
				seq[len(prefix)] = r
				p, err := New(s, seq...)
				if err != nil {
					return nil, err
				}
				out = append(out, p)
				next = append(next, seq)
			}
		}
		frontier = next
	}
	return out, nil
}

// DBLPPaperPaths returns the ten DBLP meta-paths of Table 3, in the
// paper's order: A-P-A, A-P-A-P-A, A-P-V-P-A, A-P-V, A-P-A-P-V,
// A-P-T-P-V, A-P-T, A-P-A-P-T, A-P-V-P-T, A-P-Y.
func DBLPPaperPaths(d *hin.DBLPSchema) []Path {
	notations := []string{
		"A-P-A", "A-P-A-P-A", "A-P-V-P-A",
		"A-P-V", "A-P-A-P-V", "A-P-T-P-V",
		"A-P-T", "A-P-A-P-T", "A-P-V-P-T",
		"A-P-Y",
	}
	paths, err := ParseAll(d.Schema, notations)
	if err != nil {
		panic(err) // static notation over a static schema cannot fail
	}
	return paths
}

// DBLPLength2Paths returns the four length-2 DBLP meta-paths used by
// the paper's SHINE4 configuration: A-P-A, A-P-V, A-P-T, A-P-Y.
func DBLPLength2Paths(d *hin.DBLPSchema) []Path {
	paths, err := ParseAll(d.Schema, []string{"A-P-A", "A-P-V", "A-P-T", "A-P-Y"})
	if err != nil {
		panic(err)
	}
	return paths
}

// IMDBActorPaths returns the fourteen actor-rooted IMDb meta-paths the
// paper lists at the end of Section 4 for linking actor mentions.
func IMDBActorPaths(m *hin.IMDBSchema) []Path {
	notations := []string{
		"Ac-M-Ac", "Ac-M-Ac-M-Ac", "Ac-M-G-M-Ac", "Ac-M-D-M-Ac",
		"Ac-M-G", "Ac-M-Ac-M-G", "Ac-M-D-M-G",
		"Ac-M-K", "Ac-M-Ac-M-K", "Ac-M-G-M-K", "Ac-M-D-M-K",
		"Ac-M-D", "Ac-M-Ac-M-D", "Ac-M-G-M-D",
	}
	paths, err := ParseAll(m.Schema, notations)
	if err != nil {
		panic(err)
	}
	return paths
}
