package corpus

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"shine/internal/hin"
	"shine/internal/textproc"
)

// IngestConfig declares, for a given schema, which object types are
// recognised in raw text and how — mirroring the paper's
// preprocessing: "we recognized objects of author type and objects of
// venue type from DBLP … using dictionary-based exact matching method.
// We identified objects of year type using regular expression. All
// remaining terms … are filtered by a stop word list and stemmed by
// Porter Stemmer."
type IngestConfig struct {
	// DictTypes are object types recognised by dictionary-based exact
	// matching of their names (e.g. author and venue in DBLP).
	DictTypes []hin.TypeID
	// YearType, if not hin.NoType, is the type assigned to four-digit
	// year tokens.
	YearType hin.TypeID
	// TermType, if not hin.NoType, is the type of stemmed leftover
	// terms.
	TermType hin.TypeID
}

// DBLPIngestConfig is the paper's DBLP configuration: dictionary
// matching for authors and venues, years by pattern, everything else
// stemmed into terms.
func DBLPIngestConfig(d *hin.DBLPSchema) IngestConfig {
	return IngestConfig{
		DictTypes: []hin.TypeID{d.Author, d.Venue},
		YearType:  d.Year,
		TermType:  d.Term,
	}
}

// IMDBIngestConfig recognises actors, directors and genres by
// dictionary and keywords as stemmed terms; movie plot text has no
// year role in the schema of Figure 2(b).
func IMDBIngestConfig(m *hin.IMDBSchema) IngestConfig {
	return IngestConfig{
		DictTypes: []hin.TypeID{m.Actor, m.Director, m.Genre},
		YearType:  hin.NoType,
		TermType:  m.Keyword,
	}
}

// Ingester converts raw document text into the typed-object bag
// representation, resolving surface forms against a graph. It is
// immutable after construction and safe for concurrent use.
type Ingester struct {
	g    *hin.Graph
	cfg  IngestConfig
	dict *textproc.Dictionary
}

// NewIngester builds the surface-form dictionary from the names of
// all objects of the configured dictionary types.
func NewIngester(g *hin.Graph, cfg IngestConfig) (*Ingester, error) {
	dict := textproc.NewDictionary()
	for _, t := range cfg.DictTypes {
		objs := g.ObjectsOfType(t)
		if objs == nil {
			return nil, fmt.Errorf("corpus: dictionary type %d has no objects", t)
		}
		for _, o := range objs {
			dict.Add(CanonicalSurface(g.Name(o)), o)
		}
	}
	return &Ingester{g: g, cfg: cfg, dict: dict}, nil
}

// CanonicalSurface strips a DBLP-style numeric disambiguation suffix
// ("Wei Wang 0010" -> "Wei Wang") and collapses whitespace, giving
// the plain surface form documents use for the entity.
func CanonicalSurface(name string) string {
	fields := strings.Fields(name)
	if n := len(fields); n > 1 && isAllDigits(fields[n-1]) {
		fields = fields[:n-1]
	}
	return strings.Join(fields, " ")
}

func isAllDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// lowerSurface renders a token span as its lowercase space-joined
// surface, the key a mention and a dictionary match are compared by.
// Normalising both sides the same way lets punctuation variants like
// "Richard R. Muntz" match their in-text occurrences.
func lowerSurface(toks []textproc.Token) string {
	if len(toks) == 1 {
		return toks[0].Lower
	}
	var b strings.Builder
	for i, t := range toks {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(t.Lower)
	}
	return b.String()
}

// Prepared is one text resolved against the network: the object bag
// of the whole text plus the dictionary matches a mention can be cut
// from. It is immutable and safe for concurrent use, so the mentions
// of one page can share it.
type Prepared struct {
	// bag holds every object of the text — dictionary matches, years
	// and terms — sorted by object with no duplicates.
	bag []ObjectCount
	// matches are the dictionary matches in text order.
	matches []surfaceMatch
}

// surfaceMatch is one dictionary match: its lowercase surface and the
// object it resolved to.
type surfaceMatch struct {
	surface string
	object  hin.ObjectID
}

// Prepare tokenises text, matches it against the dictionary and
// resolves years and stemmed terms, once: PrepareTokens over
// textproc.Tokenize(text).
func (in *Ingester) Prepare(text string) *Prepared {
	return in.PrepareTokens(textproc.Tokenize(text))
}

// PrepareTokens is Prepare over an already tokenised text, for callers
// that read the tokens themselves (the annotator spots mentions on
// them). Tokens covered by a dictionary match are never also read as
// years or terms, whichever mention a document is later cut for.
// Tokens and matches that resolve to no network object are dropped.
// The tokens are only read.
func (in *Ingester) PrepareTokens(tokens []textproc.Token) *Prepared {
	found := in.dict.FindAll(tokens)
	p := &Prepared{matches: make([]surfaceMatch, len(found))}
	objects := make([]hin.ObjectID, 0, len(tokens))
	matched := make([]bool, len(tokens))
	for i, m := range found {
		for j := m.TokenStart; j < m.TokenEnd; j++ {
			matched[j] = true
		}
		o := m.Value.(hin.ObjectID)
		p.matches[i] = surfaceMatch{surface: lowerSurface(tokens[m.TokenStart:m.TokenEnd]), object: o}
		objects = append(objects, o)
	}

	for i, tok := range tokens {
		if matched[i] {
			continue
		}
		if in.cfg.YearType != hin.NoType && textproc.IsYear(tok.Lower) {
			if o, ok := in.g.Lookup(in.cfg.YearType, tok.Lower); ok {
				objects = append(objects, o)
			}
			continue
		}
		if in.cfg.TermType == hin.NoType {
			continue
		}
		if textproc.IsStopWord(tok.Lower) {
			continue
		}
		term := textproc.NormalizeTerm(tok.Lower)
		if term == "" {
			continue
		}
		if o, ok := in.g.Lookup(in.cfg.TermType, term); ok {
			objects = append(objects, o)
		}
	}
	p.bag = countObjects(objects)
	return p
}

// Document cuts the document of one mention from the prepared text.
// The mention itself is removed from the object bag, per the paper
// ("removed the author name mention itself"): every dictionary match
// whose surface equals the mention's, compared case-insensitively
// over tokens, takes its object's count down by one. The cost is
// O(|bag| + matches): the text is not read again.
func (p *Prepared) Document(id, mention string, gold hin.ObjectID) *Document {
	key := lowerSurface(textproc.Tokenize(mention))
	objects := make([]ObjectCount, len(p.bag))
	copy(objects, p.bag)
	for _, m := range p.matches {
		if m.surface == key {
			i, _ := slices.BinarySearchFunc(objects, m.object, func(oc ObjectCount, o hin.ObjectID) int {
				return cmp.Compare(oc.Object, o)
			})
			objects[i].Count--
		}
	}
	objects = slices.DeleteFunc(objects, func(oc ObjectCount) bool { return oc.Count == 0 })
	return &Document{ID: id, Mention: mention, Gold: gold, Objects: objects}
}

// Ingest converts text into the Document of one mention: Prepare
// followed by Document. Callers with several mentions in one text
// should Prepare once and cut each mention's Document from it.
func (in *Ingester) Ingest(id, mention string, gold hin.ObjectID, text string) *Document {
	return in.Prepare(text).Document(id, mention, gold)
}
