package hin

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// graphsByteIdentical asserts that two graphs are indistinguishable at
// the byte level: same object tables and the exact same CSR arrays.
func graphsByteIdentical(t *testing.T, got, want *Graph) {
	t.Helper()
	if !slices.Equal(got.typeOf, want.typeOf) {
		t.Fatalf("typeOf differs: got %v want %v", got.typeOf, want.typeOf)
	}
	if !slices.Equal(got.names, want.names) {
		t.Fatalf("names differ: got %v want %v", got.names, want.names)
	}
	if len(got.rels) != len(want.rels) {
		t.Fatalf("relation count differs: got %d want %d", len(got.rels), len(want.rels))
	}
	for rel := range want.rels {
		if !slices.Equal(got.rels[rel].off, want.rels[rel].off) {
			t.Fatalf("relation %d offsets differ:\n got %v\nwant %v", rel, got.rels[rel].off, want.rels[rel].off)
		}
		if !slices.Equal(got.rels[rel].adj, want.rels[rel].adj) {
			t.Fatalf("relation %d adjacency differs:\n got %v\nwant %v", rel, got.rels[rel].adj, want.rels[rel].adj)
		}
	}
	if !slices.Equal(got.TotalDegrees(), want.TotalDegrees()) {
		t.Fatalf("total degrees differ")
	}
}

// recordedOp is one builder-level operation, replayable into a fresh
// Builder to reconstruct the unioned input from scratch. Object IDs
// can be recorded directly because identical ID assignment between
// the incremental and from-scratch paths is exactly the property
// under test.
type recordedOp struct {
	isObject bool
	typ      TypeID
	name     string
	rel      RelationID
	src, dst ObjectID
}

// TestMergeDeltasBitIdenticalProperty: K successive delta batches
// merged incrementally yield a graph byte-identical to one
// from-scratch Builder.Build over the unioned input.
func TestMergeDeltasBitIdenticalProperty(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := NewDBLPSchema()

		var ops []recordedOp
		var authors, papers, venues []ObjectID

		addObject := func(add func(TypeID, string) (ObjectID, error), typ TypeID, name string) ObjectID {
			id, err := add(typ, name)
			if err != nil {
				t.Fatalf("seed %d: add object: %v", seed, err)
			}
			ops = append(ops, recordedOp{isObject: true, typ: typ, name: name})
			switch typ {
			case d.Author:
				if !slices.Contains(authors, id) {
					authors = append(authors, id)
				}
			case d.Paper:
				if !slices.Contains(papers, id) {
					papers = append(papers, id)
				}
			case d.Venue:
				if !slices.Contains(venues, id) {
					venues = append(venues, id)
				}
			}
			return id
		}
		addEdges := func(add func(RelationID, ObjectID, ObjectID) error, n int) {
			for i := 0; i < n; i++ {
				if len(papers) == 0 {
					return
				}
				p := papers[rng.Intn(len(papers))]
				var rel RelationID
				var src, dst ObjectID
				if len(authors) > 0 && (len(venues) == 0 || rng.Intn(2) == 0) {
					rel, src, dst = d.Write, authors[rng.Intn(len(authors))], p
				} else if len(venues) > 0 {
					rel, src, dst = d.Publish, venues[rng.Intn(len(venues))], p
				} else {
					continue
				}
				// Half the time exercise inverse-relation normalisation.
				if rng.Intn(2) == 0 {
					rel, src, dst = d.Schema.Inverse(rel), dst, src
				}
				if err := add(rel, src, dst); err != nil {
					t.Fatalf("seed %d: add edge: %v", seed, err)
				}
				ops = append(ops, recordedOp{rel: rel, src: src, dst: dst})
			}
		}

		// Base graph.
		b := NewBuilder(d.Schema)
		for i := 0; i < 1+rng.Intn(6); i++ {
			addObject(b.AddObject, d.Author, fmt.Sprintf("author-%d", i))
		}
		for i := 0; i < 1+rng.Intn(3); i++ {
			addObject(b.AddObject, d.Venue, fmt.Sprintf("venue-%d", i))
		}
		for i := 0; i < 1+rng.Intn(10); i++ {
			addObject(b.AddObject, d.Paper, fmt.Sprintf("paper-%d", i))
		}
		addEdges(b.AddLink, rng.Intn(25))
		g := b.Build()

		// K incremental batches. Names may collide with existing
		// objects on purpose: Append must resolve them exactly like a
		// replaying Builder.AddObject would.
		K := 2 + rng.Intn(4)
		for batch := 0; batch < K; batch++ {
			delta := g.Append()
			for i, n := 0, rng.Intn(5); i < n; i++ {
				typ := []TypeID{d.Author, d.Paper, d.Venue}[rng.Intn(3)]
				var name string
				if rng.Intn(4) == 0 && len(ops) > 0 {
					// Re-add an existing object: must dedup, not stage.
					name = fmt.Sprintf("author-%d", rng.Intn(3))
					typ = d.Author
				} else {
					name = fmt.Sprintf("b%d-%d-%d", batch, typ, i)
				}
				addObject(delta.Append, typ, name)
			}
			addEdges(delta.Patch, rng.Intn(10))

			merged, stats := delta.Merge()
			if err := merged.Validate(); err != nil {
				t.Fatalf("seed %d batch %d: merged graph invalid: %v", seed, batch, err)
			}
			if stats.NewObjects != len(delta.typeOf) || stats.NewEdges != delta.numEdges {
				t.Fatalf("seed %d batch %d: stats %+v disagree with delta (%d objects, %d edges)",
					seed, batch, stats, len(delta.typeOf), delta.numEdges)
			}
			if !slices.IsSorted(stats.Touched) {
				t.Fatalf("seed %d batch %d: Touched not sorted: %v", seed, batch, stats.Touched)
			}
			g = merged
		}

		// From-scratch build over the unioned input.
		fresh := NewBuilder(d.Schema)
		for _, op := range ops {
			if op.isObject {
				fresh.MustAddObject(op.typ, op.name)
			} else {
				fresh.MustAddLink(op.rel, op.src, op.dst)
			}
		}
		graphsByteIdentical(t, g, fresh.Build())
	}
}

// TestMergeDeltasTouched checks the invalidation key set: endpoints of
// staged edges in both directions plus staged objects, nothing else.
func TestMergeDeltasTouched(t *testing.T) {
	d := NewDBLPSchema()
	b := NewBuilder(d.Schema)
	a0 := b.MustAddObject(d.Author, "a0")
	a1 := b.MustAddObject(d.Author, "a1")
	p0 := b.MustAddObject(d.Paper, "p0")
	b.MustAddLink(d.Write, a0, p0)
	b.MustAddLink(d.Write, a1, p0)
	base := b.Build()

	delta := base.Append()
	p1 := delta.MustAppend(d.Paper, "p1")
	delta.MustPatch(d.Write, a0, p1)
	_, stats := delta.Merge()
	want := []ObjectID{a0, p1}
	if !slices.Equal(stats.Touched, want) {
		t.Fatalf("Touched = %v, want %v (a1 and p0 have unchanged rows)", stats.Touched, want)
	}
}

func TestDeltaValidation(t *testing.T) {
	d := NewDBLPSchema()
	b := NewBuilder(d.Schema)
	a0 := b.MustAddObject(d.Author, "a0")
	p0 := b.MustAddObject(d.Paper, "p0")
	base := b.Build()

	delta := base.Append()
	if _, err := delta.Append(TypeID(99), "x"); err == nil {
		t.Error("invalid type: want error")
	}
	if err := delta.Patch(RelationID(99), a0, p0); err == nil {
		t.Error("invalid relation: want error")
	}
	if err := delta.Patch(d.Write, a0, ObjectID(42)); err == nil {
		t.Error("out-of-range endpoint: want error")
	}
	if err := delta.Patch(d.Write, p0, a0); err == nil {
		t.Error("type-mismatched endpoints: want error")
	}
	// Append resolves existing base objects instead of staging dupes.
	if id, err := delta.Append(d.Author, "a0"); err != nil || id != a0 {
		t.Errorf("Append existing = (%d, %v), want (%d, nil)", id, err, a0)
	}
	if len(delta.typeOf) != 0 {
		t.Errorf("resolving an existing object staged %d objects", len(delta.typeOf))
	}
}

// TestMergeDeltasNewRelation: a relation registered in the schema
// after the base graph was built is patchable through a delta, and the
// merge still matches a from-scratch build.
func TestMergeDeltasNewRelation(t *testing.T) {
	schema := NewSchema()
	author := schema.MustAddType("author", "A")
	paper := schema.MustAddType("paper", "P")
	write := schema.MustAddRelation("write", "writtenBy", author, paper)

	b := NewBuilder(schema)
	a0 := b.MustAddObject(author, "a0")
	p0 := b.MustAddObject(paper, "p0")
	b.MustAddLink(write, a0, p0)
	base := b.Build()

	// Network enrichment: a brand-new relation type on a live schema.
	cite := schema.MustAddRelation("cite", "citedBy", paper, paper)
	delta := base.Append()
	p1 := delta.MustAppend(paper, "p1")
	delta.MustPatch(cite, p0, p1)
	merged, _ := delta.Merge()
	if merged.NumRelations() != schema.NumRelations() {
		t.Fatalf("merged stores %d relations, schema has %d", merged.NumRelations(), schema.NumRelations())
	}

	fresh := NewBuilder(schema)
	fa0 := fresh.MustAddObject(author, "a0")
	fp0 := fresh.MustAddObject(paper, "p0")
	fresh.MustAddLink(write, fa0, fp0)
	fp1 := fresh.MustAddObject(paper, "p1")
	fresh.MustAddLink(cite, fp0, fp1)
	graphsByteIdentical(t, merged, fresh.Build())
}

// TestDegreeCacheGuard: a mutation that bypasses the sealed
// construction paths must fail loudly on the next degree read, not
// silently skew PageRank's column norms.
func TestDegreeCacheGuard(t *testing.T) {
	_, g := randomGraph(1)
	g.TotalDegrees() // sealed cache passes

	g.rels[0].adj = append(g.rels[0].adj, 0) // rogue in-place append

	assertPanics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s on a mutated graph did not panic", name)
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, "stale") {
				t.Fatalf("%s panicked with %v, want a stale-cache message", name, r)
			}
		}()
		fn()
	}
	assertPanics("TotalDegrees", func() { g.TotalDegrees() })
	assertPanics("TotalDegree", func() { g.TotalDegree(0) })
}
