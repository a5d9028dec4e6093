// Package corpus models the Web-document side of the entity linking
// task: documents as bags of typed network objects, entity mentions
// with gold labels, the preprocessing pipeline that turns raw text
// into object bags (Section 5.1 of the paper), and the generic object
// model Pg(v) estimated from the whole collection (Section 3.2).
package corpus

import (
	"fmt"
	"slices"

	"shine/internal/hin"
	"shine/internal/sparse"
)

// ObjectCount is one object of the network observed in a document,
// with its occurrence count.
type ObjectCount struct {
	Object hin.ObjectID
	Count  int
}

// Document is one Web document containing a single entity mention, in
// the bag-of-typed-objects representation the SHINE model consumes:
// the document "consists of various multi-type objects v's from the
// heterogeneous information network".
type Document struct {
	// ID identifies the document within its corpus.
	ID string
	// Mention is the surface form of the named entity mention to be
	// linked, e.g. "Wei Wang".
	Mention string
	// Gold is the true mapping entity, or hin.NoObject when unknown.
	Gold hin.ObjectID
	// Objects is the typed-object bag, sorted by ascending object ID
	// with no duplicate objects.
	Objects []ObjectCount
}

// TotalCount returns the total number of object occurrences in the
// document (the bag size counting multiplicity).
func (d *Document) TotalCount() int {
	n := 0
	for _, oc := range d.Objects {
		n += oc.Count
	}
	return n
}

// NewDocument builds a Document from an unsorted, possibly duplicated
// object list, normalising it to the sorted deduplicated form. The
// caller's slice is not modified.
func NewDocument(id, mention string, gold hin.ObjectID, objects []hin.ObjectID) *Document {
	return &Document{ID: id, Mention: mention, Gold: gold, Objects: countObjects(slices.Clone(objects))}
}

// countObjects sorts objects in place and run-length encodes it into
// the sorted, deduplicated bag form. The bag is never nil, so an empty
// document has an empty (not nil) Objects slice.
func countObjects(objects []hin.ObjectID) []ObjectCount {
	slices.Sort(objects)
	bag := make([]ObjectCount, 0, len(objects))
	for i, o := range objects {
		if i == 0 || o != objects[i-1] {
			bag = append(bag, ObjectCount{Object: o})
		}
		bag[len(bag)-1].Count++
	}
	return bag
}

// Corpus is an ordered document collection D.
type Corpus struct {
	Docs []*Document
}

// Add appends a document.
func (c *Corpus) Add(d *Document) { c.Docs = append(c.Docs, d) }

// Len returns the number of documents.
func (c *Corpus) Len() int { return len(c.Docs) }

// Subset returns a corpus over the first n documents, sharing the
// underlying document values. It is the slicing operation used by the
// paper's scalability sweep over mention-set sizes.
func (c *Corpus) Subset(n int) (*Corpus, error) {
	if n < 0 || n > len(c.Docs) {
		return nil, fmt.Errorf("corpus: subset of %d from %d documents", n, len(c.Docs))
	}
	return &Corpus{Docs: c.Docs[:n]}, nil
}

// GenericModel is the domain's generic object model Pg(v), "learned
// by counting the frequencies of multi-type objects appearing in the
// document collection D". It smooths the entity-specific object model
// so that observed objects never have zero probability.
type GenericModel struct {
	probs sparse.Vector
}

// EstimateGeneric builds the generic object model from a corpus. It
// returns an error if the corpus contains no object occurrences at
// all, since then no distribution exists.
func EstimateGeneric(c *Corpus) (*GenericModel, error) {
	counts := sparse.New()
	total := 0
	for _, d := range c.Docs {
		for _, oc := range d.Objects {
			counts.Add(int32(oc.Object), float64(oc.Count))
			total += oc.Count
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("corpus: cannot estimate generic model from %d documents with no objects", c.Len())
	}
	counts.Scale(1 / float64(total))
	return &GenericModel{probs: counts}, nil
}

// GenericFromVector adopts a previously estimated probability vector
// as a GenericModel — the binary-snapshot load path, which restores
// the exact Pg estimated at build time instead of re-counting the
// corpus. The vector is retained (not copied) and must not be
// modified afterwards.
func GenericFromVector(v sparse.Vector) (*GenericModel, error) {
	if v.Len() == 0 {
		return nil, fmt.Errorf("corpus: empty generic object model")
	}
	return &GenericModel{probs: v}, nil
}

// Prob returns Pg(v). Objects never seen in the collection have
// probability zero; the SHINE model only evaluates Pg on objects of
// the document being scored, which by construction were seen.
func (g *GenericModel) Prob(v hin.ObjectID) float64 {
	return g.probs.Get(int32(v))
}

// Vector returns the underlying probability vector (shared; do not
// modify).
func (g *GenericModel) Vector() sparse.Vector { return g.probs }
