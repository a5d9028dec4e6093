package corpus

import (
	"testing"

	"shine/internal/hin"
)

// ingestGraph builds a DBLP graph with the vocabulary of the paper's
// Figure 1 example.
func ingestGraph(t testing.TB) (*hin.DBLPSchema, *hin.Graph, map[string]hin.ObjectID) {
	t.Helper()
	d := hin.NewDBLPSchema()
	b := hin.NewBuilder(d.Schema)
	ids := map[string]hin.ObjectID{
		"wei":    b.MustAddObject(d.Author, "Wei Wang 0003"),
		"muntz":  b.MustAddObject(d.Author, "Richard R. Muntz"),
		"sigmod": b.MustAddObject(d.Venue, "SIGMOD"),
		"vldb":   b.MustAddObject(d.Venue, "VLDB"),
		"data":   b.MustAddObject(d.Term, "data"),
		"mine":   b.MustAddObject(d.Term, "mine"), // stem of "mining"
		"1999":   b.MustAddObject(d.Year, "1999"),
	}
	return d, b.Build(), ids
}

func TestIngestRecognisesAllObjectTypes(t *testing.T) {
	d, g, ids := ingestGraph(t)
	in, err := NewIngester(g, DBLPIngestConfig(d))
	if err != nil {
		t.Fatalf("NewIngester: %v", err)
	}
	text := "Wei Wang received a Ph.D in 1999 under Richard R. Muntz. " +
		"Her interests include data mining. She serves on SIGMOD and VLDB."
	doc := in.Ingest("doc1", "Wei Wang", ids["wei"], text)

	for _, key := range []string{"muntz", "sigmod", "vldb", "data", "mine", "1999"} {
		if countOf(doc, ids[key]) == 0 {
			t.Errorf("object %s not recognised", key)
		}
	}
	// The mention itself must have been removed.
	if countOf(doc, ids["wei"]) != 0 {
		t.Error("mention surface form appears in its own object bag")
	}
	if doc.Gold != ids["wei"] {
		t.Errorf("Gold = %d", doc.Gold)
	}
}

func TestIngestStripsDisambiguationSuffixInDictionary(t *testing.T) {
	d, g, ids := ingestGraph(t)
	in, err := NewIngester(g, DBLPIngestConfig(d))
	if err != nil {
		t.Fatalf("NewIngester: %v", err)
	}
	// The graph stores "Wei Wang 0003" but the document says "Wei Wang";
	// ingesting a document about someone else must still resolve it.
	doc := in.Ingest("doc2", "Richard Muntz", ids["muntz"], "Joint work with Wei Wang on data.")
	if countOf(doc, ids["wei"]) == 0 {
		t.Error("suffixed author name not matched by plain surface form")
	}
}

func TestIngestDropsStopWordsAndUnknownTerms(t *testing.T) {
	d, g, ids := ingestGraph(t)
	in, err := NewIngester(g, DBLPIngestConfig(d))
	if err != nil {
		t.Fatalf("NewIngester: %v", err)
	}
	doc := in.Ingest("doc3", "Wei Wang", ids["wei"],
		"The and of with zzzunknownzzz data")
	if got := doc.TotalCount(); got != 1 {
		t.Errorf("TotalCount = %d, want 1 (only 'data')", got)
	}
	if countOf(doc, ids["data"]) != 1 {
		t.Error("'data' not recognised")
	}
}

func TestIngestYearOutsideGraphDropped(t *testing.T) {
	d, g, ids := ingestGraph(t)
	in, err := NewIngester(g, DBLPIngestConfig(d))
	if err != nil {
		t.Fatalf("NewIngester: %v", err)
	}
	doc := in.Ingest("doc4", "Wei Wang", ids["wei"], "in 1999 and 2005")
	if countOf(doc, ids["1999"]) != 1 {
		t.Error("1999 not recognised")
	}
	// 2005 is a valid year token but has no year object in the graph.
	if doc.TotalCount() != 1 {
		t.Errorf("TotalCount = %d, want 1", doc.TotalCount())
	}
}

func TestIngestCountsRepeats(t *testing.T) {
	d, g, ids := ingestGraph(t)
	in, err := NewIngester(g, DBLPIngestConfig(d))
	if err != nil {
		t.Fatalf("NewIngester: %v", err)
	}
	doc := in.Ingest("doc5", "Wei Wang", ids["wei"], "data data data mining")
	if got := countOf(doc, ids["data"]); got != 3 {
		t.Errorf("count(data) = %v, want 3", got)
	}
	if got := countOf(doc, ids["mine"]); got != 1 {
		t.Errorf("count(mine) = %v, want 1", got)
	}
}

func TestNewIngesterRequiresDictObjects(t *testing.T) {
	d := hin.NewDBLPSchema()
	g := hin.NewBuilder(d.Schema).Build()
	if _, err := NewIngester(g, DBLPIngestConfig(d)); err == nil {
		t.Error("ingester over empty dictionary types accepted")
	}
}

func TestIngestConfigWithoutTermAndYear(t *testing.T) {
	d, g, ids := ingestGraph(t)
	cfg := IngestConfig{DictTypes: []hin.TypeID{d.Author, d.Venue}, YearType: hin.NoType, TermType: hin.NoType}
	in, err := NewIngester(g, cfg)
	if err != nil {
		t.Fatalf("NewIngester: %v", err)
	}
	doc := in.Ingest("doc6", "Wei Wang", ids["wei"], "SIGMOD 1999 data mining")
	if doc.TotalCount() != 1 {
		t.Errorf("TotalCount = %d, want 1 (only SIGMOD)", doc.TotalCount())
	}
}
