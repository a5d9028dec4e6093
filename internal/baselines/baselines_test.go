package baselines

import (
	"fmt"
	"slices"
	"testing"

	"shine/internal/corpus"
	"shine/internal/hin"
	"shine/internal/metapath"
	"shine/internal/pagerank"
	"shine/internal/shine"
)

// twoWangs mirrors the shine package fixture: two authors sharing a
// name, in different communities, with different productivity.
func twoWangs(t testing.TB) (*hin.DBLPSchema, *hin.Graph, map[string]hin.ObjectID) {
	t.Helper()
	d := hin.NewDBLPSchema()
	b := hin.NewBuilder(d.Schema)
	ids := map[string]hin.ObjectID{
		"w1":     b.MustAddObject(d.Author, "Wei Wang 0001"),
		"w2":     b.MustAddObject(d.Author, "Wei Wang 0002"),
		"muntz":  b.MustAddObject(d.Author, "Richard R. Muntz"),
		"martin": b.MustAddObject(d.Author, "Eric Martin"),
		"sigmod": b.MustAddObject(d.Venue, "SIGMOD"),
		"nips":   b.MustAddObject(d.Venue, "NIPS"),
		"data":   b.MustAddObject(d.Term, "data"),
		"neural": b.MustAddObject(d.Term, "neural"),
		"1999":   b.MustAddObject(d.Year, "1999"),
		"2005":   b.MustAddObject(d.Year, "2005"),
	}
	for i := 0; i < 5; i++ {
		p := b.MustAddObject(d.Paper, fmt.Sprintf("w1p%d", i))
		b.MustAddLink(d.Write, ids["w1"], p)
		b.MustAddLink(d.Write, ids["muntz"], p)
		b.MustAddLink(d.Publish, ids["sigmod"], p)
		b.MustAddLink(d.Contain, p, ids["data"])
		b.MustAddLink(d.PublishedIn, p, ids["1999"])
	}
	p := b.MustAddObject(d.Paper, "w2p0")
	b.MustAddLink(d.Write, ids["w2"], p)
	b.MustAddLink(d.Write, ids["martin"], p)
	b.MustAddLink(d.Publish, ids["nips"], p)
	b.MustAddLink(d.Contain, p, ids["neural"])
	b.MustAddLink(d.PublishedIn, p, ids["2005"])
	return d, b.Build(), ids
}

func TestPOPLinksToMostPopular(t *testing.T) {
	d, g, ids := twoWangs(t)
	pop, err := NewPOP(g, d.Author, nil, pagerank.DefaultOptions())
	if err != nil {
		t.Fatalf("NewPOP: %v", err)
	}
	// POP ignores context entirely: even a document about w2's world
	// links to the prolific w1.
	doc := corpus.NewDocument("d", "Wei Wang", ids["w2"],
		[]hin.ObjectID{ids["nips"], ids["neural"]})
	e, err := pop.Link(doc)
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	if e != ids["w1"] {
		t.Errorf("POP linked to %d, want the popular w1 %d", e, ids["w1"])
	}
	if _, err := pop.Link(corpus.NewDocument("x", "Nobody", hin.NoObject, nil)); err == nil {
		t.Error("unknown mention accepted")
	}
}

func TestVSimUsesContext(t *testing.T) {
	d, g, ids := twoWangs(t)
	vs, err := NewVSim(g, d.Author, nil)
	if err != nil {
		t.Fatalf("NewVSim: %v", err)
	}
	docB := corpus.NewDocument("b", "Wei Wang", ids["w2"],
		[]hin.ObjectID{ids["martin"], ids["nips"], ids["neural"], ids["2005"]})
	e, err := vs.Link(docB)
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	if e != ids["w2"] {
		t.Errorf("VSim linked to %d, want w2 %d", e, ids["w2"])
	}
	docA := corpus.NewDocument("a", "Wei Wang", ids["w1"],
		[]hin.ObjectID{ids["muntz"], ids["sigmod"], ids["data"], ids["1999"]})
	if e, _ := vs.Link(docA); e != ids["w1"] {
		t.Errorf("VSim linked docA to %d, want w1", e)
	}
}

func TestVSimTypeSubsets(t *testing.T) {
	d, g, ids := twoWangs(t)

	// Venue-only VSim can still separate the two Wangs here.
	vsVenue, err := NewVSim(g, d.Author, nil, d.Venue)
	if err != nil {
		t.Fatal(err)
	}
	docB := corpus.NewDocument("b", "Wei Wang", ids["w2"],
		[]hin.ObjectID{ids["martin"], ids["nips"], ids["neural"], ids["2005"]})
	if e, _ := vsVenue.Link(docB); e != ids["w2"] {
		t.Errorf("venue-only VSim linked to %d", e)
	}

	// Year-only VSim sees only the year object.
	vsYear, err := NewVSim(g, d.Author, nil, d.Year)
	if err != nil {
		t.Fatal(err)
	}
	if e, _ := vsYear.Link(docB); e != ids["w2"] {
		t.Errorf("year-only VSim linked to %d", e)
	}

	// A type subset excluding everything in the document degenerates
	// to the deterministic low-ID tie break.
	docYearless := corpus.NewDocument("c", "Wei Wang", ids["w2"],
		[]hin.ObjectID{ids["nips"]})
	if e, _ := vsYear.Link(docYearless); e != ids["w1"] {
		t.Errorf("zero-similarity tie broke to %d, want lowest ID", e)
	}
}

func TestVSimProfileExcludesEntityItself(t *testing.T) {
	d, g, ids := twoWangs(t)
	vs, err := NewVSim(g, d.Author, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := vs.profile(ids["w1"])
	if p.Get(int32(ids["w1"])) != 0 {
		t.Error("profile contains the entity itself")
	}
	// Coauthor appears once per shared paper (5 times).
	if got := p.Get(int32(ids["muntz"])); got != 5 {
		t.Errorf("profile coauthor count = %v, want 5", got)
	}
	// Profile is cached.
	if p2 := vs.profile(ids["w1"]); &p2 == nil || p2.Len() != p.Len() {
		t.Error("profile cache broken")
	}
}

func TestUWalkUsesContext(t *testing.T) {
	d, g, ids := twoWangs(t)
	c := &corpus.Corpus{}
	docA := corpus.NewDocument("a", "Wei Wang", ids["w1"],
		[]hin.ObjectID{ids["muntz"], ids["sigmod"], ids["data"], ids["1999"]})
	docB := corpus.NewDocument("b", "Wei Wang", ids["w2"],
		[]hin.ObjectID{ids["martin"], ids["nips"], ids["neural"], ids["2005"]})
	c.Add(docA)
	c.Add(docB)

	uw, err := NewUWalk(g, d.Author, nil, c, 4, 0.2)
	if err != nil {
		t.Fatalf("NewUWalk: %v", err)
	}
	if e, err := uw.Link(docA); err != nil || e != ids["w1"] {
		t.Errorf("Link(docA) = %d, %v; want w1", e, err)
	}
	if e, err := uw.Link(docB); err != nil || e != ids["w2"] {
		t.Errorf("Link(docB) = %d, %v; want w2", e, err)
	}
	if _, err := uw.Link(corpus.NewDocument("x", "Nobody", hin.NoObject, nil)); err == nil {
		t.Error("unknown mention accepted")
	}
}

func TestUWalkValidation(t *testing.T) {
	d, g, ids := twoWangs(t)
	c := &corpus.Corpus{}
	c.Add(corpus.NewDocument("a", "Wei Wang", ids["w1"], []hin.ObjectID{ids["sigmod"]}))
	if _, err := NewUWalk(g, d.Author, nil, c, 0, 0.2); err == nil {
		t.Error("zero steps accepted")
	}
	if _, err := NewUWalk(g, d.Author, nil, c, 4, 1.5); err == nil {
		t.Error("theta out of range accepted")
	}
}

func TestUWalkMixtureIsSubProbability(t *testing.T) {
	d, g, ids := twoWangs(t)
	c := &corpus.Corpus{}
	c.Add(corpus.NewDocument("a", "Wei Wang", ids["w1"], []hin.ObjectID{ids["sigmod"]}))
	uw, err := NewUWalk(g, d.Author, nil, c, 4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	mix := uw.walkMixture(ids["w1"])
	sum := 0.0
	for _, x := range mix {
		if x < 0 {
			t.Fatal("negative mass")
		}
		sum += x
	}
	if sum > 1+1e-9 {
		t.Errorf("mixture mass %v exceeds 1", sum)
	}
}

// TestPOPSharesModelCandidates pins the property the McNemar pairing
// in eval.CompareLinkers depends on, for every baseline: one built over
// the model's own CandidateSource resolves exactly the candidate set
// the model does, for every mention — including fuzzy/custom sources
// the default trie would not replicate — and one built with a nil
// source resolves through the same rules, so no standalone baseline
// is a divergent resolver either.
func TestPOPSharesModelCandidates(t *testing.T) {
	d, g, ids := twoWangs(t)
	c := &corpus.Corpus{}
	c.Add(corpus.NewDocument("a", "Wei Wang", ids["w1"],
		[]hin.ObjectID{ids["muntz"], ids["sigmod"], ids["data"], ids["1999"]}))
	c.Add(corpus.NewDocument("b", "Wei Wang", ids["w2"],
		[]hin.ObjectID{ids["martin"], ids["nips"], ids["neural"], ids["2005"]}))
	m, err := shine.New(g, d.Author, metapath.DBLPPaperPaths(d), c, shine.DefaultConfig())
	if err != nil {
		t.Fatalf("shine.New: %v", err)
	}
	linkers := []struct {
		name  string
		build func(src shine.CandidateSource) (shine.CandidateSource, error)
	}{
		{"POP", func(src shine.CandidateSource) (shine.CandidateSource, error) {
			p, err := NewPOP(g, d.Author, src, pagerank.DefaultOptions())
			if err != nil {
				return nil, err
			}
			return p.cands, nil
		}},
		{"VSim", func(src shine.CandidateSource) (shine.CandidateSource, error) {
			v, err := NewVSim(g, d.Author, src)
			if err != nil {
				return nil, err
			}
			return v.cands, nil
		}},
		{"UWalk", func(src shine.CandidateSource) (shine.CandidateSource, error) {
			u, err := NewUWalk(g, d.Author, src, c, 4, 0.2)
			if err != nil {
				return nil, err
			}
			return u.cands, nil
		}},
	}
	mentions := []string{"Wei Wang", "Richard R. Muntz", "Eric Martin", "Nobody Known"}
	for _, b := range linkers {
		for _, src := range []shine.CandidateSource{m.CandidateSource(), nil} {
			got, err := b.build(src)
			if err != nil {
				t.Fatalf("%s: %v", b.name, err)
			}
			for _, mention := range mentions {
				want := m.CandidateSource().Candidates(mention)
				if have := got.Candidates(mention); !slices.Equal(have, want) {
					t.Errorf("%s (shared source %v) mention %q: candidates %v, model %v",
						b.name, src != nil, mention, have, want)
				}
			}
		}
	}
}
