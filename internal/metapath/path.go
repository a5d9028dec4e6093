// Package metapath implements meta-paths over a heterogeneous
// information network schema and the meta-path constrained random
// walks (Formulas 10–11 of the SHINE paper) that generate the
// entity-specific object distributions Pe(v|p).
//
// A meta-path is a composite relation R1 ∘ R2 ∘ … ∘ Rl defined at the
// schema level. Following the paper, a path can be written as a
// sequence of object-type abbreviations ("A-P-V") when consecutive
// types are joined by a unique relation, or as a sequence of relation
// names when they are not.
package metapath

import (
	"fmt"
	"strconv"
	"strings"

	"shine/internal/hin"
)

// Path is an immutable meta-path: a sequence of relation IDs whose
// types compose, i.e. Relation(k).To == Relation(k+1).From. The empty
// path is valid and denotes the identity walk (Formula 10).
type Path struct {
	rels []hin.RelationID
	// label caches the canonical type-sequence rendering.
	label string
}

// New constructs a Path from a relation sequence, validating that the
// relations compose under the schema.
func New(s *hin.Schema, rels ...hin.RelationID) (Path, error) {
	for k, r := range rels {
		ri := s.Relation(r) // panics on out-of-range, matching schema contract
		if k > 0 {
			prev := s.Relation(rels[k-1])
			if prev.To != ri.From {
				return Path{}, fmt.Errorf(
					"metapath: relation %s (from %s) does not compose with %s (to %s)",
					ri.Name, s.Type(ri.From).Abbrev, prev.Name, s.Type(prev.To).Abbrev)
			}
		}
	}
	p := Path{rels: append([]hin.RelationID(nil), rels...)}
	p.label = p.render(s)
	return p, nil
}

// Parse builds a Path from the paper's type-abbreviation notation,
// e.g. "A-P-V" over the DBLP schema. Each consecutive type pair must
// be joined by exactly one relation in the schema; otherwise the
// notation is ambiguous and Parse returns an error telling the caller
// to construct the path from relation IDs instead.
func Parse(s *hin.Schema, notation string) (Path, error) {
	parts := strings.Split(notation, "-")
	if len(parts) < 2 {
		return Path{}, fmt.Errorf("metapath: %q has fewer than two types", notation)
	}
	types := make([]hin.TypeID, len(parts))
	for i, abbr := range parts {
		abbr = strings.TrimSpace(abbr)
		t, ok := s.TypeByAbbrev(abbr)
		if !ok {
			return Path{}, fmt.Errorf("metapath: unknown type abbreviation %q in %q", abbr, notation)
		}
		types[i] = t
	}
	rels := make([]hin.RelationID, 0, len(types)-1)
	for i := 0; i+1 < len(types); i++ {
		cands := s.RelationsBetween(types[i], types[i+1])
		switch len(cands) {
		case 0:
			return Path{}, fmt.Errorf("metapath: no relation from %s to %s in %q",
				s.Type(types[i]).Abbrev, s.Type(types[i+1]).Abbrev, notation)
		case 1:
			rels = append(rels, cands[0])
		default:
			return Path{}, fmt.Errorf(
				"metapath: %d relations from %s to %s; %q is ambiguous, construct the path from relation IDs",
				len(cands), s.Type(types[i]).Abbrev, s.Type(types[i+1]).Abbrev, notation)
		}
	}
	return New(s, rels...)
}

// MustParse is Parse that panics on error.
func MustParse(s *hin.Schema, notation string) Path {
	p, err := Parse(s, notation)
	if err != nil {
		panic(err)
	}
	return p
}

// ParseAll parses a list of notations over the same schema.
func ParseAll(s *hin.Schema, notations []string) ([]Path, error) {
	paths := make([]Path, 0, len(notations))
	for _, n := range notations {
		p, err := Parse(s, n)
		if err != nil {
			return nil, err
		}
		paths = append(paths, p)
	}
	return paths, nil
}

// Len returns the number of relations in the path (the paper's path
// length l).
func (p Path) Len() int { return len(p.rels) }

// IsEmpty reports whether the path is the identity path.
func (p Path) IsEmpty() bool { return len(p.rels) == 0 }

// Relations returns a copy of the relation sequence.
func (p Path) Relations() []hin.RelationID {
	return append([]hin.RelationID(nil), p.rels...)
}

// StartType returns the source type of the path, or hin.NoType for
// the empty path.
func (p Path) StartType(s *hin.Schema) hin.TypeID {
	if len(p.rels) == 0 {
		return hin.NoType
	}
	return s.Relation(p.rels[0]).From
}

// render produces the canonical type-sequence label, e.g. "A-P-V".
func (p Path) render(s *hin.Schema) string {
	if len(p.rels) == 0 {
		return "∅"
	}
	var b strings.Builder
	b.WriteString(s.Type(s.Relation(p.rels[0]).From).Abbrev)
	for _, r := range p.rels {
		b.WriteString("-")
		b.WriteString(s.Type(s.Relation(r).To).Abbrev)
	}
	return b.String()
}

// String returns the canonical label computed at construction time.
// A Path literal built without a schema has no cached label and
// renders as a relation count.
func (p Path) String() string {
	if p.label != "" {
		return p.label
	}
	if len(p.rels) == 0 {
		return "∅"
	}
	return fmt.Sprintf("path(%d relations)", len(p.rels))
}

// Key returns a canonical comparable key for the path based on its
// relation sequence ("3,5,1"), suitable for map keys and caches. Every
// walk request builds one, so it is appended into a 32-byte stack
// buffer and costs one allocation, the returned string; only a longer
// key spills the buffer to the heap.
func (p Path) Key() string {
	var buf [32]byte
	b := buf[:0]
	for k, r := range p.rels {
		if k > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(r), 10)
	}
	return string(b)
}
