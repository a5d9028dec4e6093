package annotate

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"shine/internal/corpus"
	"shine/internal/experiments"
	"shine/internal/hin"
	"shine/internal/shine"
	"shine/internal/textproc"
)

// serialAnnotate is the annotator's former linking path, kept as the
// reference: every spotted mention re-ingests the whole text and is
// linked on its own with LinkContext, one after another. Ingest itself
// is held equal to the pre-split ingestion by internal/corpus's oracle
// tests.
func serialAnnotate(a *Annotator, id, text string) ([]Annotation, error) {
	tokens := textproc.Tokenize(text)
	g := a.model.Graph()
	var out []Annotation
	for mi, match := range a.mentions.FindAll(tokens) {
		start := tokens[match.TokenStart].Start
		end := tokens[match.TokenEnd-1].End
		surface := text[start:end]
		doc := a.ing.Ingest(fmt.Sprintf("%s#%d", id, mi), surface, hin.NoObject, text)
		res, err := a.model.LinkContext(context.Background(), doc)
		if err != nil {
			return nil, fmt.Errorf("annotate: linking %q: %w", surface, err)
		}
		best := res.Candidates[0]
		if best.Posterior < a.minPosterior {
			continue
		}
		out = append(out, Annotation{
			Start:      start,
			End:        end,
			Surface:    surface,
			Entity:     res.Entity,
			EntityName: g.Name(res.Entity),
			Posterior:  best.Posterior,
			Candidates: len(res.Candidates),
		})
	}
	return out, nil
}

// synthPages trains a model on a generated dataset and cuts pages of
// eight of its documents joined by blank lines — the /v1/annotate page
// shape — from four seeded orders of the documents.
func synthPages(t *testing.T) (*shine.Model, corpus.IngestConfig, []string) {
	t.Helper()
	env, err := experiments.QuickEnv()
	if err != nil {
		t.Fatal(err)
	}
	ds, d := env.DS, env.DS.Data.Schema
	m, err := shine.New(ds.Data.Graph, d.Author, env.Paths10, ds.Corpus, shine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Learn(ds.Corpus); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var pages []string
	for pass := 0; pass < 4; pass++ {
		order := rng.Perm(len(ds.RawDocs))
		for j := 0; j+8 <= len(order); j += 8 {
			var parts []string
			for _, i := range order[j : j+8] {
				parts = append(parts, ds.RawDocs[i].Text)
			}
			pages = append(pages, strings.Join(parts, "\n\n"))
		}
	}
	return m, corpus.DBLPIngestConfig(d), pages
}

// TestAnnotateMatchesSerialPath holds the prepare-once, streamed
// annotator equal, field for field and bit for bit on posteriors, to
// the serial per-mention path it replaced, on generated pages with and
// without a posterior floor.
func TestAnnotateMatchesSerialPath(t *testing.T) {
	m, cfg, pages := synthPages(t)
	if len(pages) < 50 {
		t.Fatalf("%d pages, want at least 50", len(pages))
	}
	mentions := 0
	for _, minPost := range []float64{0, 0.6} {
		a, err := New(m, cfg, Options{MinPosterior: minPost})
		if err != nil {
			t.Fatal(err)
		}
		for pi, text := range pages {
			id := fmt.Sprintf("page%d", pi)
			want, err := serialAnnotate(a, id, text)
			if err != nil {
				t.Fatal(err)
			}
			got, err := a.AnnotateContext(context.Background(), id, text)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("min %v page %d: %d annotations, serial path %d", minPost, pi, len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.Start != w.Start || g.End != w.End || g.Surface != w.Surface ||
					g.Entity != w.Entity || g.EntityName != w.EntityName || g.Candidates != w.Candidates ||
					math.Float64bits(g.Posterior) != math.Float64bits(w.Posterior) {
					t.Fatalf("min %v page %d annotation %d:\n got %+v\nwant %+v", minPost, pi, i, g, w)
				}
			}
			mentions += len(want)
		}
	}
	t.Logf("%d annotations on %d pages match the serial path", mentions, len(pages))
}
