package corpus

import (
	"cmp"
	"slices"
	"strings"

	"shine/internal/hin"
	"shine/internal/textproc"
)

// OracleIngest is the reference ingestion: the whole text is
// tokenised, matched, stemmed and bagged for one mention, and the bag
// is counted through a map. It is the per-mention pipeline Prepare and
// Document replace, kept verbatim as test code so the two-step split
// can be held equal to it. Exported for the external test package.
func OracleIngest(in *Ingester, id, mention string, gold hin.ObjectID, text string) *Document {
	tokens := textproc.Tokenize(text)
	matches := in.dict.FindAll(tokens)
	mentionLower := strings.ToLower(joinTokens(textproc.Tokenize(mention)))

	var objects []hin.ObjectID
	matched := make([]bool, len(tokens))
	for _, m := range matches {
		if strings.ToLower(joinTokens(tokens[m.TokenStart:m.TokenEnd])) == mentionLower {
			// The mention itself: mark consumed but emit nothing.
			for i := m.TokenStart; i < m.TokenEnd; i++ {
				matched[i] = true
			}
			continue
		}
		for i := m.TokenStart; i < m.TokenEnd; i++ {
			matched[i] = true
		}
		objects = append(objects, m.Value.(hin.ObjectID))
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

	counts := make(map[hin.ObjectID]int)
	for _, o := range objects {
		counts[o]++
	}
	d := &Document{ID: id, Mention: mention, Gold: gold}
	d.Objects = make([]ObjectCount, 0, len(counts))
	for o, c := range counts {
		d.Objects = append(d.Objects, ObjectCount{Object: o, Count: c})
	}
	slices.SortFunc(d.Objects, func(a, b ObjectCount) int { return cmp.Compare(a.Object, b.Object) })
	return d
}

// joinTokens renders a token sequence as space-joined text.
func joinTokens(toks []textproc.Token) string {
	parts := make([]string, len(toks))
	for i, t := range toks {
		parts[i] = t.Text
	}
	return strings.Join(parts, " ")
}

// MatchSurfaces returns every dictionary match of text as written —
// case and punctuation preserved — in text order: the mentions a page
// can be cut for. Exported for the external test package.
func MatchSurfaces(in *Ingester, text string) []string {
	tokens := textproc.Tokenize(text)
	var out []string
	for _, m := range in.dict.FindAll(tokens) {
		out = append(out, text[tokens[m.TokenStart].Start:tokens[m.TokenEnd-1].End])
	}
	return out
}
