package annotate

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"shine/internal/corpus"
	"shine/internal/hin"
	"shine/internal/metapath"
	"shine/internal/shine"
)

// crowdSize is how many distinctly named authors the fixture adds, so
// a page can hold that many distinct surfaces: enough that a stream
// window (2×GOMAXPROCS documents) covers only a fraction of them.
const crowdSize = 2000

// crowdName is the name of crowd author i: two letter-only words, so
// no numeric disambiguation suffix is stripped from it.
func crowdName(i int) string {
	word := func(n int) string {
		return string(rune('A'+n%26)) + string(rune('a'+n/26%26))
	}
	return "Crowd " + word(i) + " " + word(i/676)
}

// annotateFixture: two "Wei Wang"s in different communities plus a
// unique author, so a text can contain both ambiguous and unambiguous
// mentions, and a crowd of crowdSize authors with distinct names,
// each of one paper of their own.
func annotateFixture(t testing.TB) (*hin.DBLPSchema, *hin.Graph, map[string]hin.ObjectID, *shine.Model) {
	t.Helper()
	d := hin.NewDBLPSchema()
	b := hin.NewBuilder(d.Schema)
	ids := map[string]hin.ObjectID{
		"w1":     b.MustAddObject(d.Author, "Wei Wang 0001"),
		"w2":     b.MustAddObject(d.Author, "Wei Wang 0002"),
		"muntz":  b.MustAddObject(d.Author, "Richard R. Muntz"),
		"sigmod": b.MustAddObject(d.Venue, "SIGMOD"),
		"nips":   b.MustAddObject(d.Venue, "NIPS"),
		"data":   b.MustAddObject(d.Term, "data"),
		"neural": b.MustAddObject(d.Term, "neural"),
	}
	for i := 0; i < crowdSize; i++ {
		p := b.MustAddObject(d.Paper, fmt.Sprintf("crowd%d", i))
		b.MustAddLink(d.Write, b.MustAddObject(d.Author, crowdName(i)), p)
	}
	for i := 0; i < 4; i++ {
		p := b.MustAddObject(d.Paper, fmt.Sprintf("w1p%d", i))
		b.MustAddLink(d.Write, ids["w1"], p)
		b.MustAddLink(d.Write, ids["muntz"], p)
		b.MustAddLink(d.Publish, ids["sigmod"], p)
		b.MustAddLink(d.Contain, p, ids["data"])
	}
	p := b.MustAddObject(d.Paper, "w2p0")
	b.MustAddLink(d.Write, ids["w2"], p)
	b.MustAddLink(d.Publish, ids["nips"], p)
	b.MustAddLink(d.Contain, p, ids["neural"])
	g := b.Build()

	// A seed corpus so the generic model covers the vocabulary.
	c := &corpus.Corpus{}
	c.Add(corpus.NewDocument("seed1", "Wei Wang", ids["w1"],
		[]hin.ObjectID{ids["muntz"], ids["sigmod"], ids["data"]}))
	c.Add(corpus.NewDocument("seed2", "Wei Wang", ids["w2"],
		[]hin.ObjectID{ids["nips"], ids["neural"]}))

	m, err := shine.New(g, d.Author, metapath.DBLPPaperPaths(d), c, shine.DefaultConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d, g, ids, m
}

func TestAnnotateDetectsAndLinks(t *testing.T) {
	d, g, ids, m := annotateFixture(t)
	a, err := New(m, corpus.DBLPIngestConfig(d), Options{})
	if err != nil {
		t.Fatalf("New annotator: %v", err)
	}
	text := "Wei Wang works on data and publishes at SIGMOD with Richard R. Muntz."
	anns, err := a.Annotate("page", text)
	if err != nil {
		t.Fatalf("Annotate: %v", err)
	}
	if len(anns) != 2 {
		t.Fatalf("got %d annotations, want 2 (Wei Wang, Muntz): %+v", len(anns), anns)
	}
	// In text order.
	if anns[0].Surface != "Wei Wang" || anns[1].Surface != "Richard R. Muntz" {
		t.Errorf("surfaces = %q, %q", anns[0].Surface, anns[1].Surface)
	}
	// The SIGMOD/data context resolves Wei Wang to w1.
	if anns[0].Entity != ids["w1"] {
		t.Errorf("Wei Wang linked to %s", g.Name(anns[0].Entity))
	}
	if anns[0].Candidates != 2 || anns[1].Candidates != 1 {
		t.Errorf("candidate counts = %d, %d", anns[0].Candidates, anns[1].Candidates)
	}
	// Offsets slice back to the surface text.
	for _, an := range anns {
		if got := text[an.Start:an.End]; got != an.Surface {
			t.Errorf("span [%d,%d) = %q, want %q", an.Start, an.End, got, an.Surface)
		}
	}
}

func TestAnnotateUsesContextPerDocument(t *testing.T) {
	d, g, ids, m := annotateFixture(t)
	a, err := New(m, corpus.DBLPIngestConfig(d), Options{})
	if err != nil {
		t.Fatal(err)
	}
	anns, err := a.Annotate("page", "Wei Wang studies neural models and publishes at NIPS.")
	if err != nil {
		t.Fatal(err)
	}
	if len(anns) != 1 {
		t.Fatalf("got %d annotations", len(anns))
	}
	if anns[0].Entity != ids["w2"] {
		t.Errorf("NIPS-context Wei Wang linked to %s, want w2", g.Name(anns[0].Entity))
	}
}

func TestAnnotateNoMentions(t *testing.T) {
	d, _, _, m := annotateFixture(t)
	a, err := New(m, corpus.DBLPIngestConfig(d), Options{})
	if err != nil {
		t.Fatal(err)
	}
	anns, err := a.Annotate("page", "Nothing relevant here at all.")
	if err != nil {
		t.Fatal(err)
	}
	if anns != nil {
		t.Errorf("annotations = %+v, want none", anns)
	}
}

func TestAnnotateMinPosteriorFilters(t *testing.T) {
	d, _, _, m := annotateFixture(t)
	a, err := New(m, corpus.DBLPIngestConfig(d), Options{MinPosterior: 0.999})
	if err != nil {
		t.Fatal(err)
	}
	// An ambiguous mention with almost no context cannot clear a
	// 0.999 bar.
	anns, err := a.Annotate("page", "Wei Wang.")
	if err != nil {
		t.Fatal(err)
	}
	for _, an := range anns {
		if an.Surface == "Wei Wang" {
			t.Errorf("low-confidence annotation survived: %+v", an)
		}
	}
}

func TestAnnotateSuffixedNamesDetectable(t *testing.T) {
	d, _, ids, m := annotateFixture(t)
	a, err := New(m, corpus.DBLPIngestConfig(d), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The network stores "Richard R. Muntz" without a suffix and the
	// Wangs with suffixes; both surface families must be detectable
	// by their plain forms.
	anns, err := a.Annotate("page", "Richard R. Muntz and Wei Wang collaborated on data at SIGMOD.")
	if err != nil {
		t.Fatal(err)
	}
	var surfaces []string
	for _, an := range anns {
		surfaces = append(surfaces, an.Surface)
	}
	joined := strings.Join(surfaces, "|")
	if !strings.Contains(joined, "Richard R. Muntz") || !strings.Contains(joined, "Wei Wang") {
		t.Errorf("surfaces = %v", surfaces)
	}
	_ = ids
}

func TestNewAnnotatorValidation(t *testing.T) {
	d, _, _, m := annotateFixture(t)
	if _, err := New(m, corpus.DBLPIngestConfig(d), Options{MinPosterior: 1}); err == nil {
		t.Error("MinPosterior 1 accepted")
	}
	if _, err := New(m, corpus.DBLPIngestConfig(d), Options{MinPosterior: -0.1}); err == nil {
		t.Error("negative MinPosterior accepted")
	}
	if _, err := New(m, corpus.DBLPIngestConfig(d), Options{MinPosterior: math.NaN()}); err == nil {
		t.Error("NaN MinPosterior accepted")
	}
}
