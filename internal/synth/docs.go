package synth

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"shine/internal/corpus"
	"shine/internal/hin"
)

// DocConfig parameterises Web-document generation. Each document is a
// small homepage-style text about one gold author from an ambiguous
// group: it mentions the shared surface name and mixes the author's
// true neighbourhood (coauthors, venues, title terms, a year) with
// domain noise, at the signal/noise ratio set here.
type DocConfig struct {
	// Seed drives the document sampling, independent of the network
	// seed.
	Seed int64
	// NumDocs is the number of documents (= mentions) to generate.
	NumDocs int
	// MinCandidates restricts gold authors to groups with at least
	// this many members, so every mention is genuinely ambiguous.
	MinCandidates int
	// MaxCoauthors, MaxVenues and Terms bound how much of the gold
	// author's true neighbourhood each document reveals.
	MaxCoauthors, MaxVenues, Terms int
	// NoiseTerms is the number of off-topic or shared vocabulary words
	// mixed in.
	NoiseTerms int
	// CoauthorProb, VenueProb and YearProb are the chances that a
	// document reveals any coauthors, any venues, or the publication
	// year at all; they model how often real homepages contain each
	// signal.
	CoauthorProb, VenueProb, YearProb float64
	// DistractorVenueProb is the chance of naming one venue from a
	// random topic, simulating service on a program committee outside
	// the author's area.
	DistractorVenueProb float64
	// IndirectSignalProb is the chance that a revealed venue or term
	// comes from the gold author's coauthors' papers rather than her
	// own — the kind of evidence only the length-4 meta-paths
	// (A-P-A-P-V, A-P-A-P-T) can relate back to the author.
	IndirectSignalProb float64
	// NILDocs appends this many out-of-network documents: each uses
	// one group's surface name as its mention but renders another
	// author's neighbourhood as context, modelling a namesake the
	// network does not contain. Their gold label is hin.NoObject.
	NILDocs int
}

// DefaultDocConfig mirrors the paper's corpus regime: one mention per
// document, most documents exposing terms and venues, coauthors
// sometimes absent, about 700 documents.
func DefaultDocConfig() DocConfig {
	return DocConfig{
		Seed:                2,
		NumDocs:             700,
		MinCandidates:       3,
		MaxCoauthors:        2,
		MaxVenues:           3,
		Terms:               4,
		NoiseTerms:          9,
		CoauthorProb:        0.45,
		VenueProb:           0.65,
		YearProb:            0.5,
		DistractorVenueProb: 0.4,
		IndirectSignalProb:  0.55,
	}
}

// Validate checks the configuration.
func (c DocConfig) Validate() error {
	switch {
	case c.NumDocs < 1:
		return fmt.Errorf("synth: NumDocs %d must be positive", c.NumDocs)
	case c.MinCandidates < 2:
		return fmt.Errorf("synth: MinCandidates %d must be at least 2", c.MinCandidates)
	case c.Terms < 1:
		return fmt.Errorf("synth: Terms %d must be positive", c.Terms)
	case c.NILDocs < 0:
		return fmt.Errorf("synth: NILDocs %d negative", c.NILDocs)
	}
	for _, p := range []float64{c.CoauthorProb, c.VenueProb, c.YearProb, c.DistractorVenueProb, c.IndirectSignalProb} {
		if p < 0 || p > 1 {
			return fmt.Errorf("synth: probability %v outside [0, 1]", p)
		}
	}
	return nil
}

// RawDoc is one generated Web document before ingestion.
type RawDoc struct {
	// ID names the document.
	ID string
	// Mention is the ambiguous surface name the document is about.
	Mention string
	// Gold is the true author entity.
	Gold hin.ObjectID
	// Text is the full document text, pipeline-ready.
	Text string
}

// neighbourhood is what the gold author's network vicinity offers for
// rendering: names are surface forms, terms are raw words.
type neighbourhood struct {
	coauthors []string
	venues    []string
	terms     []string
	years     []string
	// coVenues and coTerms come from the coauthors' own papers — the
	// author's two-hop neighbourhood.
	coVenues []string
	coTerms  []string
}

// authorNeighbourhood walks the gold author's papers and collects the
// renderable neighbourhood, with multiplicity (a venue published in
// six times appears six times, so sampling reflects walk
// probabilities).
func authorNeighbourhood(data *DBLPData, e hin.ObjectID) neighbourhood {
	g, d := data.Graph, data.Schema
	var nb neighbourhood
	seenCo := make(map[hin.ObjectID]bool)
	for _, p := range g.Neighbors(d.Write, e) {
		for _, co := range g.Neighbors(d.WrittenBy, p) {
			if co == e {
				continue
			}
			nb.coauthors = append(nb.coauthors, corpus.CanonicalSurface(g.Name(co)))
			if seenCo[co] {
				continue
			}
			seenCo[co] = true
			// Two-hop signals: what the coauthor publishes.
			for _, cp := range g.Neighbors(d.Write, co) {
				for _, v := range g.Neighbors(d.PublishedAt, cp) {
					nb.coVenues = append(nb.coVenues, g.Name(v))
				}
				for _, t := range g.Neighbors(d.Contain, cp) {
					if w, ok := data.TermWord[g.Name(t)]; ok {
						nb.coTerms = append(nb.coTerms, w)
					}
				}
			}
		}
		for _, v := range g.Neighbors(d.PublishedAt, p) {
			nb.venues = append(nb.venues, g.Name(v))
		}
		for _, t := range g.Neighbors(d.Contain, p) {
			if w, ok := data.TermWord[g.Name(t)]; ok {
				nb.terms = append(nb.terms, w)
			}
		}
		for _, y := range g.Neighbors(d.PublishedIn, p) {
			nb.years = append(nb.years, g.Name(y))
		}
	}
	return nb
}

// GenerateDocs renders cfg.NumDocs documents over the generated
// network. Groups rotate round-robin; within a group the gold member
// is drawn with probability proportional to its paper count, matching
// the popularity bias of search-engine-harvested pages (the paper's
// corpus came from Google queries).
func GenerateDocs(data *DBLPData, cfg DocConfig) ([]RawDoc, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	var eligible []AmbiguityGroup
	for _, grp := range data.Groups {
		if len(grp.Members) >= cfg.MinCandidates {
			eligible = append(eligible, grp)
		}
	}
	if len(eligible) == 0 {
		return nil, fmt.Errorf("synth: no ambiguity group has %d or more members", cfg.MinCandidates)
	}
	if cfg.NILDocs > 0 && len(eligible) < 2 {
		return nil, fmt.Errorf("synth: NIL documents need at least two eligible groups, have %d", len(eligible))
	}

	docs := make([]RawDoc, 0, cfg.NumDocs+cfg.NILDocs)
	for i := 0; i < cfg.NumDocs; i++ {
		grp := eligible[i%len(eligible)]
		gold := weightedMember(rng, data, grp)
		nb := authorNeighbourhood(data, gold)
		text := renderDoc(rng, data, grp.Surface, gold, nb, cfg)
		docs = append(docs, RawDoc{
			ID:      fmt.Sprintf("doc-%05d", i),
			Mention: grp.Surface,
			Gold:    gold,
			Text:    text,
		})
	}
	// Out-of-network documents: one group's surface name over another
	// author's world. The true referent ("the third Wei Wang") has no
	// entity record, so gold is NIL.
	for i := 0; i < cfg.NILDocs; i++ {
		grp := eligible[i%len(eligible)]
		other := eligible[(i+1)%len(eligible)]
		impostor := weightedMember(rng, data, other)
		nb := authorNeighbourhood(data, impostor)
		text := renderDoc(rng, data, grp.Surface, impostor, nb, cfg)
		docs = append(docs, RawDoc{
			ID:      fmt.Sprintf("nildoc-%05d", i),
			Mention: grp.Surface,
			Gold:    hin.NoObject,
			Text:    text,
		})
	}
	return docs, nil
}

// weightedMember draws a group member with probability proportional
// to its paper count.
func weightedMember(rng *rand.Rand, data *DBLPData, grp AmbiguityGroup) hin.ObjectID {
	total := 0
	for _, m := range grp.Members {
		total += data.PaperCount[m]
	}
	if total == 0 {
		return grp.Members[rng.Intn(len(grp.Members))]
	}
	r := rng.Intn(total)
	for _, m := range grp.Members {
		r -= data.PaperCount[m]
		if r < 0 {
			return m
		}
	}
	return grp.Members[len(grp.Members)-1]
}

// renderDoc assembles the document text.
func renderDoc(rng *rand.Rand, data *DBLPData, surface string, gold hin.ObjectID, nb neighbourhood, cfg DocConfig) string {
	var b strings.Builder
	topic := data.AuthorTopic[gold]
	fmt.Fprintf(&b, "%s is a researcher working on %s problems.", surface, topicNames[topic%len(topicNames)])

	if len(nb.coauthors) > 0 && rng.Float64() < cfg.CoauthorProb {
		names := sampleStrings(rng, nb.coauthors, cfg.MaxCoauthors)
		fmt.Fprintf(&b, " Collaborators include %s.", strings.Join(names, ", "))
	}
	if len(nb.venues) > 0 && rng.Float64() < cfg.VenueProb {
		venues := sampleMixed(rng, nb.venues, nb.coVenues, cfg.MaxVenues, cfg.IndirectSignalProb)
		fmt.Fprintf(&b, " %s has published at %s.", surface, strings.Join(venues, ", "))
	}
	if len(nb.years) > 0 && rng.Float64() < cfg.YearProb {
		fmt.Fprintf(&b, " A representative paper appeared in %s.", nb.years[rng.Intn(len(nb.years))])
	}
	if len(nb.terms) > 0 {
		words := sampleMixed(rng, nb.terms, nb.coTerms, cfg.Terms, cfg.IndirectSignalProb)
		fmt.Fprintf(&b, " Research interests span %s.", strings.Join(words, ", "))
	}

	// Noise: shared vocabulary and off-topic words.
	var noise []string
	for n := 0; n < cfg.NoiseTerms; n++ {
		if len(data.SharedWords) > 0 && rng.Float64() < 0.5 {
			noise = append(noise, data.SharedWords[rng.Intn(len(data.SharedWords))])
		} else {
			t := rng.Intn(len(data.TopicTerms))
			noise = append(noise, data.TopicTerms[t][rng.Intn(len(data.TopicTerms[t]))])
		}
	}
	if len(noise) > 0 {
		fmt.Fprintf(&b, " The page also mentions %s.", strings.Join(noise, ", "))
	}
	if rng.Float64() < cfg.DistractorVenueProb {
		t := rng.Intn(len(data.TopicVenues))
		vs := data.TopicVenues[t]
		fmt.Fprintf(&b, " %s served on the committee of %s.",
			surface, data.Graph.Name(vs[rng.Intn(len(vs))]))
	}
	return b.String()
}

// sampleMixed draws up to k distinct values, each draw taken from the
// indirect pool with probability indirectProb (falling back to the
// direct pool when the indirect one is empty).
func sampleMixed(rng *rand.Rand, direct, indirect []string, k int, indirectProb float64) []string {
	if k <= 0 {
		return nil
	}
	seen := make(map[string]bool)
	var out []string
	for tries := 0; tries < 8*k && len(out) < k; tries++ {
		pool := direct
		if len(indirect) > 0 && rng.Float64() < indirectProb {
			pool = indirect
		}
		if len(pool) == 0 {
			break
		}
		s := pool[rng.Intn(len(pool))]
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	if len(out) > 1 {
		sort.Strings(out[1:])
	}
	return out
}

// sampleStrings draws up to k distinct values from pool (which may
// contain repeats; draws are by occurrence, so frequent values are
// favoured). The result preserves first-draw order.
func sampleStrings(rng *rand.Rand, pool []string, k int) []string {
	if k <= 0 {
		return nil
	}
	seen := make(map[string]bool)
	var out []string
	// Bounded draws to avoid spinning when distinct values < k.
	for tries := 0; tries < 8*k && len(out) < k; tries++ {
		s := pool[rng.Intn(len(pool))]
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out[1:]) // deterministic rendering apart from the lead value
	return out
}
