package corpus

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestPrepareDocumentMatchesOracleEdgeCases holds Prepare+Document
// equal to the per-mention oracle on the texts where cutting by
// subtraction could drift from filtering during ingestion. DeepEqual
// tells a nil Objects slice from an empty one, so the empty bags of
// the first cases must also match the oracle's non-nil empty slice.
func TestPrepareDocumentMatchesOracleEdgeCases(t *testing.T) {
	d, g, ids := ingestGraph(t)
	in, err := NewIngester(g, DBLPIngestConfig(d))
	if err != nil {
		t.Fatal(err)
	}
	const page = "Wei Wang received a Ph.D in 1999 under Richard R. Muntz. " +
		"Her interests include data mining. She serves on SIGMOD and VLDB."
	cases := []struct {
		name, mention, text string
	}{
		{"empty text", "Wei Wang", ""},
		{"empty mention", "", page},
		{"punctuation-only mention", "...", page},
		{"text is only the mention", "Wei Wang", "Wei Wang"},
		{"text is only the mention, punctuated", "Richard R. Muntz", "Richard R. Muntz."},
		{"mention repeated", "Wei Wang", "Wei Wang met Wei Wang at SIGMOD; WEI WANG mined data in 1999."},
		{"mention repeated among others", "SIGMOD", "SIGMOD, VLDB and SIGMOD again with Wei Wang"},
		{"mention absent", "Richard R. Muntz", "Wei Wang mined data at VLDB in 1999."},
		{"mention absent, unknown name", "Nobody Known", page},
		{"lowercase unpunctuated mention", "richard r muntz", page},
		{"lowercase unpunctuated text", "Richard R. Muntz", "richard r muntz and wei wang at sigmod"},
		{"uppercase mention", "RICHARD R. MUNTZ", page},
		{"mention is a prefix of a match", "Richard", page},
		{"every object type", "Wei Wang", page},
		{"only stop words", "Wei Wang", "the and of with"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := OracleIngest(in, "id", tc.mention, ids["wei"], tc.text)
			got := in.Prepare(tc.text).Document("id", tc.mention, ids["wei"])
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Prepare+Document = %+v\n            oracle = %+v", got, want)
			}
			if got2 := in.Ingest("id", tc.mention, ids["wei"], tc.text); !reflect.DeepEqual(got2, want) {
				t.Errorf("Ingest = %+v, oracle %+v", got2, want)
			}
		})
	}
}

// TestPreparedIsShared: cutting one mention never disturbs the
// prepared page, so the mentions of one page can be cut in any order
// and from many goroutines.
func TestPreparedIsShared(t *testing.T) {
	d, g, ids := ingestGraph(t)
	in, err := NewIngester(g, DBLPIngestConfig(d))
	if err != nil {
		t.Fatal(err)
	}
	text := "Wei Wang and Richard R. Muntz at SIGMOD, VLDB and SIGMOD in 1999 on data mining. Wei Wang again."
	mentions := []string{"Wei Wang", "Richard R. Muntz", "SIGMOD", "VLDB", "absent"}
	p := in.Prepare(text)
	want := make([]*Document, len(mentions))
	for i, m := range mentions {
		want[i] = OracleIngest(in, fmt.Sprint(i), m, ids["wei"], text)
	}
	var wg sync.WaitGroup
	for rep := 0; rep < 8; rep++ {
		wg.Add(1)
		go func(rep int) {
			defer wg.Done()
			for k := range mentions {
				i := (k + rep) % len(mentions)
				if got := p.Document(fmt.Sprint(i), mentions[i], ids["wei"]); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("rep %d mention %q: %+v, want %+v", rep, mentions[i], got, want[i])
				}
			}
		}(rep)
	}
	wg.Wait()
}

func TestCanonicalSurface(t *testing.T) {
	for in, want := range map[string]string{
		"Wei Wang 0010":     "Wei Wang",
		"Wei  Wang":         "Wei Wang",
		" Richard R. Muntz": "Richard R. Muntz",
		"SIGMOD":            "SIGMOD",
		"2005":              "2005", // a lone number is a name, not a suffix
		"Wei Wang 00a1":     "Wei Wang 00a1",
		"":                  "",
	} {
		if got := CanonicalSurface(in); got != want {
			t.Errorf("CanonicalSurface(%q) = %q, want %q", in, got, want)
		}
	}
}
