package shine

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"shine/internal/corpus"
	"shine/internal/hin"
	"shine/internal/metapath"
)

// twoWangs builds a hand-crafted disambiguation scenario: two authors
// named "Wei Wang" in different communities.
//
//   - Wei Wang 0001: 6 papers at SIGMOD on data/mining, coauthor
//     Richard R. Muntz, years 1999.
//   - Wei Wang 0002: 2 papers at NIPS on neural/learning, coauthor
//     Eric Martin, years 2005.
//
// A document talking about SIGMOD, mining and Muntz must link to 0001;
// one talking about NIPS and learning must link to 0002.
type fixture struct {
	d      *hin.DBLPSchema
	g      *hin.Graph
	ids    map[string]hin.ObjectID
	corpus *corpus.Corpus
	docA   *corpus.Document // about Wei Wang 0001
	docB   *corpus.Document // about Wei Wang 0002
}

func newFixture(t testing.TB) *fixture {
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
		"mine":   b.MustAddObject(d.Term, "mine"),
		"neural": b.MustAddObject(d.Term, "neural"),
		"learn":  b.MustAddObject(d.Term, "learn"),
		"1999":   b.MustAddObject(d.Year, "1999"),
		"2005":   b.MustAddObject(d.Year, "2005"),
	}
	for i := 0; i < 6; i++ {
		p := b.MustAddObject(d.Paper, fmt.Sprintf("w1-p%d", i))
		b.MustAddLink(d.Write, ids["w1"], p)
		b.MustAddLink(d.Publish, ids["sigmod"], p)
		b.MustAddLink(d.Contain, p, ids["data"])
		b.MustAddLink(d.Contain, p, ids["mine"])
		b.MustAddLink(d.PublishedIn, p, ids["1999"])
		if i < 3 {
			b.MustAddLink(d.Write, ids["muntz"], p)
		}
	}
	for i := 0; i < 2; i++ {
		p := b.MustAddObject(d.Paper, fmt.Sprintf("w2-p%d", i))
		b.MustAddLink(d.Write, ids["w2"], p)
		b.MustAddLink(d.Publish, ids["nips"], p)
		b.MustAddLink(d.Contain, p, ids["neural"])
		b.MustAddLink(d.Contain, p, ids["learn"])
		b.MustAddLink(d.PublishedIn, p, ids["2005"])
		b.MustAddLink(d.Write, ids["martin"], p)
	}
	g := b.Build()

	docA := corpus.NewDocument("a", "Wei Wang", ids["w1"],
		[]hin.ObjectID{ids["muntz"], ids["sigmod"], ids["data"], ids["mine"], ids["1999"]})
	docB := corpus.NewDocument("b", "Wei Wang", ids["w2"],
		[]hin.ObjectID{ids["martin"], ids["nips"], ids["neural"], ids["learn"], ids["2005"]})
	c := &corpus.Corpus{}
	c.Add(docA)
	c.Add(docB)
	return &fixture{d: d, g: g, ids: ids, corpus: c, docA: docA, docB: docB}
}

func newModel(t testing.TB, f *fixture, mutate func(*Config)) *Model {
	t.Helper()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := New(f.g, f.d.Author, metapath.DBLPPaperPaths(f.d), f.corpus, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	f := newFixture(t)
	paths := metapath.DBLPPaperPaths(f.d)

	bad := DefaultConfig()
	bad.Theta = 1.5
	if _, err := New(f.g, f.d.Author, paths, f.corpus, bad); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := New(f.g, f.d.Author, nil, f.corpus, DefaultConfig()); err == nil {
		t.Error("empty path set accepted")
	}
	// Path starting at the wrong type.
	vp := metapath.MustParse(f.d.Schema, "V-P-A")
	if _, err := New(f.g, f.d.Author, []metapath.Path{vp}, f.corpus, DefaultConfig()); err == nil {
		t.Error("venue-rooted path accepted for author linking")
	}
	if _, err := New(f.g, f.d.Author, paths, &corpus.Corpus{}, DefaultConfig()); err == nil {
		t.Error("empty corpus accepted")
	}
}

func TestLinkUsesContext(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, nil)

	ra, err := m.Link(f.docA)
	if err != nil {
		t.Fatalf("Link(docA): %v", err)
	}
	if ra.Entity != f.ids["w1"] {
		t.Errorf("docA linked to %d (%s), want w1", ra.Entity, f.g.Name(ra.Entity))
	}
	rb, err := m.Link(f.docB)
	if err != nil {
		t.Fatalf("Link(docB): %v", err)
	}
	if rb.Entity != f.ids["w2"] {
		t.Errorf("docB linked to %d (%s), want w2 despite lower popularity", rb.Entity, f.g.Name(rb.Entity))
	}
	// Posteriors form a distribution and are sorted descending.
	sum := 0.0
	for i, cs := range rb.Candidates {
		sum += cs.Posterior
		if i > 0 && cs.Posterior > rb.Candidates[i-1].Posterior {
			t.Error("candidates not sorted by posterior")
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("posteriors sum to %v", sum)
	}
}

func TestLinkNoCandidates(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, nil)
	doc := corpus.NewDocument("x", "Unknown Person", hin.NoObject, nil)
	_, err := m.Link(doc)
	if !errors.Is(err, ErrNoCandidates) {
		t.Errorf("err = %v, want ErrNoCandidates", err)
	}
}

// TestLinkAll: linking the whole fixture corpus as one batch resolves
// each document's mention to its own author.
func TestLinkAll(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, nil)
	res := linkAll(m, f.corpus.Docs, 2)
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	if res[0].Err != nil || res[1].Err != nil {
		t.Fatalf("batch errors: %v, %v", res[0].Err, res[1].Err)
	}
	if res[0].Result.Entity != f.ids["w1"] || res[1].Result.Entity != f.ids["w2"] {
		t.Errorf("batch linked %d, %d", res[0].Result.Entity, res[1].Result.Entity)
	}
}

func TestPopularityFavoursProlificAuthor(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, nil)
	if m.Popularity(f.ids["w1"]) <= m.Popularity(f.ids["w2"]) {
		t.Errorf("P(w1)=%v <= P(w2)=%v; 6-paper author should be more popular",
			m.Popularity(f.ids["w1"]), m.Popularity(f.ids["w2"]))
	}
	// Uniform mode equalises them.
	mu := newModel(t, f, func(c *Config) { c.Popularity = PopularityUniform })
	if mu.Popularity(f.ids["w1"]) != mu.Popularity(f.ids["w2"]) {
		t.Error("uniform popularity not uniform")
	}
}

func TestSetWeights(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, nil)
	n := len(m.Paths())

	w := make([]float64, n)
	w[0] = 2
	w[1] = 2
	if err := m.SetWeights(w); err != nil {
		t.Fatalf("SetWeights: %v", err)
	}
	got := m.Weights()
	if math.Abs(got[0]-0.5) > 1e-12 || math.Abs(got[1]-0.5) > 1e-12 {
		t.Errorf("weights not normalised: %v", got)
	}
	if err := m.SetWeights(make([]float64, n)); err == nil {
		t.Error("all-zero weights accepted")
	}
	if err := m.SetWeights([]float64{1}); err == nil {
		t.Error("wrong-length weights accepted")
	}
	bad := make([]float64, n)
	bad[0] = -1
	bad[1] = 2
	if err := m.SetWeights(bad); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestEntitySpecificProbMatchesFigure3Shape(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, nil)

	// Pe(SIGMOD | w1) is positive: w1 publishes there.
	p1, err := m.EntitySpecificProb(f.ids["w1"], f.ids["sigmod"])
	if err != nil {
		t.Fatal(err)
	}
	if p1 <= 0 {
		t.Errorf("Pe(SIGMOD|w1) = %v, want > 0", p1)
	}
	// Unsmoothed entity-specific probability is zero for w2.
	p2, err := m.EntitySpecificProb(f.ids["w2"], f.ids["sigmod"])
	if err != nil {
		t.Fatal(err)
	}
	if p2 != 0 {
		t.Errorf("Pe(SIGMOD|w2) = %v, want 0", p2)
	}
}

func TestCandidates(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, nil)
	if got := m.Candidates("Wei Wang"); len(got) != 2 {
		t.Errorf("Candidates(Wei Wang) = %v", got)
	}
	if got := m.Candidates("Richard Muntz"); len(got) != 1 {
		t.Errorf("Candidates(Richard Muntz) = %v", got)
	}
}

func TestConfigValidate(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Theta = 0 },
		func(c *Config) { c.Theta = 1 },
		func(c *Config) { c.Eta = 0 },
		func(c *Config) { c.Eta = 1.5 },
		func(c *Config) { c.Popularity = PopularityMode(9) },
		func(c *Config) { c.MaxEMIterations = 0 },
		func(c *Config) { c.MaxGDIterations = 0 },
		func(c *Config) { c.EMTolerance = 0 },
		func(c *Config) { c.GDTolerance = 0 },
		func(c *Config) { c.SGDBatch = -1 },
		func(c *Config) { c.WalkPruning = -1 },
		func(c *Config) { c.ProbFloor = 0 },
		func(c *Config) { c.ProbFloor = 0.5 },
	}
	for i, mutate := range mutations {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestLinkWithWalkPruning(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, func(c *Config) { c.WalkPruning = 8 })
	for _, doc := range f.corpus.Docs {
		r, err := m.Link(doc)
		if err != nil {
			t.Fatalf("Link(%s) with pruning: %v", doc.ID, err)
		}
		if r.Entity != doc.Gold {
			t.Errorf("doc %s mislinked under pruning: %d, want %d", doc.ID, r.Entity, doc.Gold)
		}
	}
	// Learning also works with pruned walks.
	if _, err := m.Learn(f.corpus); err != nil {
		t.Fatalf("Learn with pruning: %v", err)
	}
}

func TestPopularityModeString(t *testing.T) {
	if PopularityPageRank.String() != "pagerank" || PopularityUniform.String() != "uniform" {
		t.Error("PopularityMode.String wrong")
	}
	if PopularityMode(9).String() == "" {
		t.Error("unknown mode renders empty")
	}
}
