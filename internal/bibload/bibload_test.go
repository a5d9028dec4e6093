package bibload

import (
	"strings"
	"testing"

	"shine/internal/corpus"
	"shine/internal/hin"
	"shine/internal/metapath"
	"shine/internal/shine"
)

const samplePubs = `
{"title": "Mining Frequent Patterns in Databases", "authors": ["Wei Wang 0001", "Richard R. Muntz"], "venue": "SIGMOD", "year": 1999}
{"title": "Neural Models for Learning", "authors": ["Wei Wang 0002", "Eric Martin"], "venue": "NIPS", "year": 2005}
{"title": "Mining Data Streams", "authors": ["Wei Wang 0001"], "venue": "SIGMOD", "year": 2001}
`

func TestLoadBuildsNetwork(t *testing.T) {
	d, g, st, err := Load(strings.NewReader(samplePubs))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if st.Publications != 3 {
		t.Errorf("Publications = %d", st.Publications)
	}
	stats := g.Stats()
	if stats.ObjectsByTyp["paper"] != 3 {
		t.Errorf("papers = %d", stats.ObjectsByTyp["paper"])
	}
	if stats.ObjectsByTyp["author"] != 4 {
		t.Errorf("authors = %d", stats.ObjectsByTyp["author"])
	}
	if stats.ObjectsByTyp["venue"] != 2 {
		t.Errorf("venues = %d", stats.ObjectsByTyp["venue"])
	}
	// Title terms are stemmed: "Mining" -> "mine"; stop words ("in",
	// "for") dropped.
	if _, ok := g.Lookup(d.Term, "mine"); !ok {
		t.Error("stemmed term 'mine' missing")
	}
	if _, ok := g.Lookup(d.Term, "in"); ok {
		t.Error("stop word 'in' became a term")
	}
	if st.SkippedTerms == 0 {
		t.Error("no terms skipped despite stop words in titles")
	}
	// The prolific Wei Wang has two papers.
	w1, ok := g.Lookup(d.Author, "Wei Wang 0001")
	if !ok {
		t.Fatal("Wei Wang 0001 missing")
	}
	if got := g.Degree(d.Write, w1); got != 2 {
		t.Errorf("Wei Wang 0001 writes %d papers, want 2", got)
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []string{
		`{"title": "", "authors": ["A"]}`,
		`{"title": "T", "authors": []}`,
		`{"title": "T", "authors": [" "]}`,
		`{"title": "T", "authors": ["A"], "year": 99}`,
		`not json at all`,
		``, // no publications
	}
	for i, in := range cases {
		if _, _, _, err := Load(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted: %s", i, in)
		}
	}
}

func TestLoadSkipsBlankLines(t *testing.T) {
	in := "\n" + `{"title": "T", "authors": ["A"]}` + "\n\n"
	_, _, st, err := Load(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if st.Publications != 1 {
		t.Errorf("Publications = %d", st.Publications)
	}
}

func TestLoadedNetworkLinksEndToEnd(t *testing.T) {
	d, g, _, err := Load(strings.NewReader(samplePubs))
	if err != nil {
		t.Fatal(err)
	}
	ing, err := corpus.NewIngester(g, corpus.DBLPIngestConfig(d))
	if err != nil {
		t.Fatal(err)
	}
	text := "Wei Wang published on mining frequent patterns at SIGMOD with Richard R. Muntz."
	doc := ing.Ingest("page", "Wei Wang", hin.NoObject, text)
	c := &corpus.Corpus{}
	c.Add(doc)
	m, err := shine.New(g, d.Author, metapath.DBLPPaperPaths(d), c, shine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Link(doc)
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	w1, _ := g.Lookup(d.Author, "Wei Wang 0001")
	if r.Entity != w1 {
		t.Errorf("linked to %s, want Wei Wang 0001", g.Name(r.Entity))
	}
}
