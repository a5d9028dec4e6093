// Package annotate implements the paper's motivating application of
// Section 1: automatically annotating domain-specific Web text with
// knowledge from the network. It adds the missing front half of the
// pipeline — *detecting* entity mentions in raw text — on top of the
// SHINE linker: every occurrence of a known entity surface form is
// found, linked in the context of the full document, and returned
// with its byte span, entity and posterior, ready to be rendered as
// hyperlinks or knowledge cards ("we could show some related
// knowledge about the author ... after linking it").
package annotate

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"shine/internal/corpus"
	"shine/internal/hin"
	"shine/internal/shine"
	"shine/internal/textproc"
)

// Annotation is one linked mention within a text.
type Annotation struct {
	// Start and End are byte offsets of the mention in the input.
	Start, End int
	// Surface is the mention text as it appeared.
	Surface string
	// Entity is the linked entity.
	Entity hin.ObjectID
	// EntityName is the entity's (disambiguated) name in the network.
	EntityName string
	// Posterior is the linking confidence P(e|m, d).
	Posterior float64
	// Candidates is the number of entities the surface form could
	// have referred to.
	Candidates int
}

// Annotator detects and links entity mentions in raw text. It is
// immutable after construction and safe for concurrent use if the
// underlying model is.
type Annotator struct {
	model *shine.Model
	ing   *corpus.Ingester
	// mentions maps entity surface forms (disambiguation suffixes
	// stripped) to detection; the payload is unused, matching is all
	// that matters.
	mentions *textproc.Dictionary
	// minPosterior suppresses annotations the model is unsure about.
	minPosterior float64
}

// Options configures an Annotator.
type Options struct {
	// MinPosterior drops annotations whose top posterior is below it;
	// 0 keeps everything.
	MinPosterior float64
}

// New builds an annotator from a linked-up model and the ingestion
// configuration of its network's schema. The mention dictionary is
// built from the names of all entity-type objects.
func New(m *shine.Model, cfg corpus.IngestConfig, opts Options) (*Annotator, error) {
	// NaN fails both range tests, so it needs its own.
	if math.IsNaN(opts.MinPosterior) || opts.MinPosterior < 0 || opts.MinPosterior >= 1 {
		return nil, fmt.Errorf("annotate: MinPosterior %v outside [0, 1)", opts.MinPosterior)
	}
	ing, err := corpus.NewIngester(m.Graph(), cfg)
	if err != nil {
		return nil, err
	}
	dict := textproc.NewDictionary()
	g := m.Graph()
	for _, e := range g.ObjectsOfType(m.EntityType()) {
		dict.Add(corpus.CanonicalSurface(g.Name(e)), struct{}{})
	}
	return &Annotator{model: m, ing: ing, mentions: dict, minPosterior: opts.MinPosterior}, nil
}

// Annotate detects every entity mention in text and links each one
// using the full document as context. Mentions whose best posterior
// falls below MinPosterior are omitted. Annotations are returned in
// text order.
func (a *Annotator) Annotate(id, text string) ([]Annotation, error) {
	return a.AnnotateContext(context.Background(), id, text)
}

// AnnotateContext is Annotate under a request context. The text is
// tokenised once: the mentions are spotted on the tokens and the page
// is prepared from them (corpus.Ingester.PrepareTokens). Every
// occurrence of one surface, as written, has the same cut document and
// the same candidates, so the same link; each distinct surface is cut
// and linked once, in order of first occurrence, through
// Model.LinkStream, and its result is fanned back to every occurrence.
// Cancellation is checked as each linked surface leaves the stream and
// inside each link (see Model.LinkContext): a canceled request, or the
// first surface that fails to link, cancels the stream and returns
// that error with no annotations.
func (a *Annotator) AnnotateContext(ctx context.Context, id, text string) ([]Annotation, error) {
	tokens := textproc.Tokenize(text)
	matches := a.mentions.FindAll(tokens)
	if len(matches) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	page := a.ing.PrepareTokens(tokens)
	// surfaces holds each distinct surface as written, punctuation
	// included, in order of first occurrence; surfaceOf[mi] indexes
	// match mi's. Surfaces are not normalised before grouping: two
	// spellings of one name may resolve to different candidates.
	span := func(mi int) (int, int) {
		return tokens[matches[mi].TokenStart].Start, tokens[matches[mi].TokenEnd-1].End
	}
	var surfaces []string
	surfaceOf := make([]int, len(matches))
	index := make(map[string]int)
	for mi := range matches {
		start, end := span(mi)
		surface := text[start:end]
		si, ok := index[surface]
		if !ok {
			si = len(surfaces)
			index[surface] = si
			surfaces = append(surfaces, surface)
		}
		surfaceOf[mi] = si
	}

	streamCtx, cancel := context.WithCancel(ctx)
	// Documents are cut as the stream takes them, so the live bags
	// are bounded by the stream's window, not by the surface count.
	docs := make(chan *corpus.Document)
	go func() {
		defer close(docs)
		for si, surface := range surfaces {
			select {
			case docs <- page.Document(fmt.Sprintf("%s#%d", id, si), surface, hin.NoObject):
			case <-streamCtx.Done():
				return
			}
		}
	}()
	results := a.model.LinkStream(streamCtx, docs, min(len(surfaces), runtime.GOMAXPROCS(0)))
	defer func() {
		// Cancel and drain the stream, so no link outlives the call.
		cancel()
		for range results {
		}
	}()
	g := a.model.Graph()
	// linked[si] is surface si's annotation, less its span.
	linked := make([]Annotation, len(surfaces))
	for sr := range results {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if sr.Err != nil {
			// Surface forms come from entity names, so candidates
			// always exist; any error is a real failure.
			return nil, fmt.Errorf("annotate: linking %q: %w", sr.Doc.Mention, sr.Err)
		}
		linked[sr.Seq] = Annotation{
			Surface:    sr.Doc.Mention,
			Entity:     sr.Result.Entity,
			EntityName: g.Name(sr.Result.Entity),
			Posterior:  sr.Result.Candidates[0].Posterior,
			Candidates: len(sr.Result.Candidates),
		}
	}
	// A canceled request closes the stream early without an error
	// result; only a complete stream yields annotations.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var out []Annotation
	for mi := range matches {
		an := linked[surfaceOf[mi]]
		if an.Posterior < a.minPosterior {
			continue
		}
		an.Start, an.End = span(mi)
		out = append(out, an)
	}
	return out, nil
}
