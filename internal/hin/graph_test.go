package hin

import (
	"bytes"
	"fmt"
	"testing"
)

// tinyDBLP builds a miniature DBLP network with two authors sharing a
// coauthored paper:
//
//	wei ---write---> p1 <---write--- rakesh
//	sigmod -publish-> p1 -contain-> "mining"
//	p1 -publishedIn-> 1999
//	wei ---write---> p2, vldb -publish-> p2, p2 -contain-> "data"
func tinyDBLP(t testing.TB) (*DBLPSchema, *Graph, map[string]ObjectID) {
	t.Helper()
	d := NewDBLPSchema()
	b := NewBuilder(d.Schema)
	ids := map[string]ObjectID{
		"wei":    b.MustAddObject(d.Author, "Wei Wang"),
		"rakesh": b.MustAddObject(d.Author, "Rakesh Kumar"),
		"p1":     b.MustAddObject(d.Paper, "p1"),
		"p2":     b.MustAddObject(d.Paper, "p2"),
		"sigmod": b.MustAddObject(d.Venue, "SIGMOD"),
		"vldb":   b.MustAddObject(d.Venue, "VLDB"),
		"mining": b.MustAddObject(d.Term, "mining"),
		"data":   b.MustAddObject(d.Term, "data"),
		"1999":   b.MustAddObject(d.Year, "1999"),
	}
	b.MustAddLink(d.Write, ids["wei"], ids["p1"])
	b.MustAddLink(d.Write, ids["rakesh"], ids["p1"])
	b.MustAddLink(d.Write, ids["wei"], ids["p2"])
	b.MustAddLink(d.Publish, ids["sigmod"], ids["p1"])
	b.MustAddLink(d.Publish, ids["vldb"], ids["p2"])
	b.MustAddLink(d.Contain, ids["p1"], ids["mining"])
	b.MustAddLink(d.Contain, ids["p2"], ids["data"])
	b.MustAddLink(d.PublishedIn, ids["p1"], ids["1999"])
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return d, g, ids
}

func TestBuilderDeduplicatesObjects(t *testing.T) {
	d := NewDBLPSchema()
	b := NewBuilder(d.Schema)
	a1 := b.MustAddObject(d.Author, "Wei Wang")
	a2 := b.MustAddObject(d.Author, "Wei Wang")
	if a1 != a2 {
		t.Errorf("same (type, name) produced distinct IDs %d, %d", a1, a2)
	}
	// Same name under a different type is a different object.
	v := b.MustAddObject(d.Venue, "Wei Wang")
	if v == a1 {
		t.Error("same name under different type shared an ID")
	}
	if len(b.typeOf) != 2 {
		t.Errorf("NumObjects = %d, want 2", len(b.typeOf))
	}
}

func TestBuilderRejectsBadLinks(t *testing.T) {
	d := NewDBLPSchema()
	b := NewBuilder(d.Schema)
	a := b.MustAddObject(d.Author, "A1")
	v := b.MustAddObject(d.Venue, "V1")
	if err := b.AddLink(d.Write, a, v); err == nil {
		t.Error("type-violating link accepted")
	}
	if err := b.AddLink(d.Write, a, ObjectID(99)); err == nil {
		t.Error("out-of-range destination accepted")
	}
	if err := b.AddLink(RelationID(99), a, v); err == nil {
		t.Error("unknown relation accepted")
	}
}

func TestGraphNeighborsAndDegrees(t *testing.T) {
	d, g, ids := tinyDBLP(t)

	papers := g.Neighbors(d.Write, ids["wei"])
	if len(papers) != 2 {
		t.Fatalf("wei writes %d papers, want 2", len(papers))
	}
	if g.Degree(d.Write, ids["wei"]) != 2 {
		t.Errorf("Degree(write, wei) = %d, want 2", g.Degree(d.Write, ids["wei"]))
	}
	// Inverse adjacency was derived automatically.
	authors := g.Neighbors(d.WrittenBy, ids["p1"])
	if len(authors) != 2 {
		t.Fatalf("p1 writtenBy %d authors, want 2", len(authors))
	}
	found := map[ObjectID]bool{}
	for _, a := range authors {
		found[a] = true
	}
	if !found[ids["wei"]] || !found[ids["rakesh"]] {
		t.Errorf("p1 authors = %v, want wei and rakesh", authors)
	}
	// Venue has no write links.
	if got := g.Degree(d.Write, ids["sigmod"]); got != 0 {
		t.Errorf("Degree(write, sigmod) = %d, want 0", got)
	}
}

func TestBuilderAddLinkAcceptsInverseDirection(t *testing.T) {
	d := NewDBLPSchema()
	b := NewBuilder(d.Schema)
	a := b.MustAddObject(d.Author, "A1")
	p := b.MustAddObject(d.Paper, "P1")
	// Adding via the inverse relation must normalise to the same link.
	b.MustAddLink(d.WrittenBy, p, a)
	g := b.Build()
	if got := g.Neighbors(d.Write, a); len(got) != 1 || got[0] != p {
		t.Errorf("Neighbors(write, a) = %v, want [%d]", got, p)
	}
	if got := g.Neighbors(d.WrittenBy, p); len(got) != 1 || got[0] != a {
		t.Errorf("Neighbors(writtenBy, p) = %v, want [%d]", got, a)
	}
}

func TestLinkMultiplicityIsPreserved(t *testing.T) {
	d := NewDBLPSchema()
	b := NewBuilder(d.Schema)
	v := b.MustAddObject(d.Venue, "SIGMOD")
	p := b.MustAddObject(d.Paper, "P1")
	p2 := b.MustAddObject(d.Paper, "P2")
	b.MustAddLink(d.Publish, v, p)
	b.MustAddLink(d.Publish, v, p)
	b.MustAddLink(d.Publish, v, p2)
	g := b.Build()
	if got := g.Degree(d.Publish, v); got != 3 {
		t.Errorf("Degree with duplicate link = %d, want 3", got)
	}
}

func TestGraphTotalDegree(t *testing.T) {
	d, g, ids := tinyDBLP(t)
	_ = d
	// p1 has links: writtenBy wei, writtenBy rakesh, publishedAt sigmod,
	// contain mining, publishedIn 1999 => out-degree 5.
	if got := g.TotalDegree(ids["p1"]); got != 5 {
		t.Errorf("TotalDegree(p1) = %d, want 5", got)
	}
	// 1999 has a single yearOf link back to p1.
	if got := g.TotalDegree(ids["1999"]); got != 1 {
		t.Errorf("TotalDegree(1999) = %d, want 1", got)
	}
}

func TestGraphObjectsOfTypeAndLookup(t *testing.T) {
	d, g, ids := tinyDBLP(t)
	authors := g.ObjectsOfType(d.Author)
	if len(authors) != 2 {
		t.Fatalf("%d authors, want 2", len(authors))
	}
	if id, ok := g.Lookup(d.Author, "Wei Wang"); !ok || id != ids["wei"] {
		t.Errorf("Lookup(author, Wei Wang) = %d, %v", id, ok)
	}
	if _, ok := g.Lookup(d.Venue, "Wei Wang"); ok {
		t.Error("Lookup found a venue named Wei Wang")
	}
	if g.ObjectsOfType(TypeID(99)) != nil {
		t.Error("ObjectsOfType(99) non-nil")
	}
}

func TestGraphForEachLinkVisitsBothDirections(t *testing.T) {
	_, g, _ := tinyDBLP(t)
	count := 0
	g.ForEachLink(func(rel RelationID, src, dst ObjectID) { count++ })
	if want := 2 * g.NumLinks(); count != want {
		t.Errorf("ForEachLink visited %d directed links, want %d", count, want)
	}
}

func TestGraphStats(t *testing.T) {
	_, g, _ := tinyDBLP(t)
	st := g.Stats()
	if st.Objects != 9 {
		t.Errorf("Stats.Objects = %d, want 9", st.Objects)
	}
	if st.Links != 8 {
		t.Errorf("Stats.Links = %d, want 8", st.Links)
	}
	if st.ObjectsByTyp["author"] != 2 {
		t.Errorf("authors = %d, want 2", st.ObjectsByTyp["author"])
	}
	if st.LinksByRel["write"] != 3 {
		t.Errorf("write links = %d, want 3", st.LinksByRel["write"])
	}
	if st.Isolated != 0 {
		t.Errorf("Isolated = %d, want 0", st.Isolated)
	}
}

func TestGraphStatsCountsIsolatedObjects(t *testing.T) {
	d := NewDBLPSchema()
	b := NewBuilder(d.Schema)
	b.MustAddObject(d.Author, "Loner")
	g := b.Build()
	if st := g.Stats(); st.Isolated != 1 {
		t.Errorf("Isolated = %d, want 1", st.Isolated)
	}
}

func TestBuildIsRepeatable(t *testing.T) {
	d := NewDBLPSchema()
	b := NewBuilder(d.Schema)
	a := b.MustAddObject(d.Author, "A1")
	p := b.MustAddObject(d.Paper, "P1")
	b.MustAddLink(d.Write, a, p)
	g1 := b.Build()
	// Keep building after the first freeze.
	p2 := b.MustAddObject(d.Paper, "P2")
	b.MustAddLink(d.Write, a, p2)
	g2 := b.Build()
	if g1.NumObjects() != 2 || g2.NumObjects() != 3 {
		t.Errorf("graphs share state: %d, %d objects", g1.NumObjects(), g2.NumObjects())
	}
	if g1.Degree(d.Write, a) != 1 || g2.Degree(d.Write, a) != 2 {
		t.Errorf("degrees = %d, %d, want 1, 2", g1.Degree(d.Write, a), g2.Degree(d.Write, a))
	}
}

func TestTotalDegreesMatchesPerRelationSums(t *testing.T) {
	d := NewDBLPSchema()
	b := NewBuilder(d.Schema)
	a1 := b.MustAddObject(d.Author, "A1")
	a2 := b.MustAddObject(d.Author, "A2")
	v := b.MustAddObject(d.Venue, "V")
	for i := 0; i < 4; i++ {
		p := b.MustAddObject(d.Paper, "P"+string(rune('0'+i)))
		b.MustAddLink(d.Write, a1, p)
		if i%2 == 0 {
			b.MustAddLink(d.Write, a2, p)
		}
		b.MustAddLink(d.Publish, v, p)
	}
	b.MustAddObject(d.Term, "isolated")
	g := b.Build()

	degs := g.TotalDegrees()
	if len(degs) != g.NumObjects() {
		t.Fatalf("TotalDegrees has %d entries for %d objects", len(degs), g.NumObjects())
	}
	for ov := 0; ov < g.NumObjects(); ov++ {
		want := 0
		for rel := 0; rel < g.NumRelations(); rel++ {
			want += g.Degree(RelationID(rel), ObjectID(ov))
		}
		if int(degs[ov]) != want {
			t.Errorf("TotalDegrees[%d] = %d, per-relation sum = %d", ov, degs[ov], want)
		}
		if g.TotalDegree(ObjectID(ov)) != want {
			t.Errorf("TotalDegree(%d) = %d, want %d", ov, g.TotalDegree(ObjectID(ov)), want)
		}
	}
}

func TestRowsExposesCSRRuns(t *testing.T) {
	d := NewDBLPSchema()
	b := NewBuilder(d.Schema)
	a := b.MustAddObject(d.Author, "A")
	p1 := b.MustAddObject(d.Paper, "P1")
	p2 := b.MustAddObject(d.Paper, "P2")
	b.MustAddLink(d.Write, a, p2)
	b.MustAddLink(d.Write, a, p1)
	b.MustAddLink(d.Write, a, p1) // multiplicity
	g := b.Build()

	off, adj := g.Rows(d.Write)
	if len(off) != g.NumObjects()+1 {
		t.Fatalf("off has %d entries, want %d", len(off), g.NumObjects()+1)
	}
	if len(adj) != 3 {
		t.Fatalf("adj has %d entries, want 3", len(adj))
	}
	for ov := 0; ov < g.NumObjects(); ov++ {
		run := adj[off[ov]:off[ov+1]]
		want := g.Neighbors(d.Write, ObjectID(ov))
		if len(run) != len(want) {
			t.Fatalf("row %d: %v != Neighbors %v", ov, run, want)
		}
		for i := range run {
			if run[i] != want[i] {
				t.Fatalf("row %d: %v != Neighbors %v", ov, run, want)
			}
		}
	}
	// Runs are sorted ascending with multiplicity: P1, P1, P2.
	row := adj[off[a]:off[a+1]]
	if row[0] != p1 || row[1] != p1 || row[2] != p2 {
		t.Errorf("author row = %v, want [%d %d %d]", row, p1, p1, p2)
	}
}

// TestParallelBuildIsDeterministic freezes the same builder state
// twice and serialises both graphs: the parallel per-relation-pair
// construction must be invisible in the output bytes.
func TestParallelBuildIsDeterministic(t *testing.T) {
	d := NewDBLPSchema()
	b := NewBuilder(d.Schema)
	for i := 0; i < 50; i++ {
		a := b.MustAddObject(d.Author, fmt.Sprintf("A%d", i))
		p := b.MustAddObject(d.Paper, fmt.Sprintf("P%d", i))
		b.MustAddLink(d.Write, a, p)
		if i > 0 {
			b.MustAddLink(d.Write, a, ObjectID(int(p)-2))
		}
	}
	var buf1, buf2 bytes.Buffer
	if _, err := b.Build().WriteTo(&buf1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build().WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Error("two Builds of identical state serialised differently")
	}
}
