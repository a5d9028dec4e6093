package corpus_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"shine/internal/corpus"
	"shine/internal/experiments"
	"shine/internal/hin"
)

// TestPrepareDocumentMatchesOracleOnPages holds Prepare+Document equal
// to the per-mention oracle for every dictionary match of generated
// annotate-shaped pages: eight synthetic documents joined by blank
// lines, the page shape /v1/annotate serves. Each match is cut as
// written, lowercased, and as the page's own document mentions.
func TestPrepareDocumentMatchesOracleOnPages(t *testing.T) {
	env, err := experiments.QuickEnv()
	if err != nil {
		t.Fatal(err)
	}
	ds, in := env.DS, env.DS.Ingester
	rng := rand.New(rand.NewSource(1))
	pages, checked := 0, 0
	for pass := 0; pass < 2; pass++ {
		order := rng.Perm(len(ds.RawDocs))
		for j := 0; j+8 <= len(order); j += 8 {
			var parts, mentions []string
			for _, i := range order[j : j+8] {
				parts = append(parts, ds.RawDocs[i].Text)
				mentions = append(mentions, ds.RawDocs[i].Mention)
			}
			text := strings.Join(parts, "\n\n")
			for _, s := range corpus.MatchSurfaces(in, text) {
				mentions = append(mentions, s, strings.ToLower(s))
			}
			p := in.Prepare(text)
			for _, m := range mentions {
				want := corpus.OracleIngest(in, "page", m, hin.NoObject, text)
				if got := p.Document("page", m, hin.NoObject); !reflect.DeepEqual(got, want) {
					t.Fatalf("page %d mention %q: Prepare+Document differs from the oracle\n got %+v\nwant %+v", pages, m, got, want)
				}
				checked++
			}
			pages++
		}
	}
	if pages < 20 || checked < 1000 {
		t.Fatalf("checked %d mentions on %d pages; the fixture is too small to mean anything", checked, pages)
	}
	t.Logf("%d mentions on %d pages equal the oracle", checked, pages)
}
