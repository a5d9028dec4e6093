// Package bibload builds a DBLP-schema heterogeneous information
// network from publication records — the ingestion path a real
// deployment uses instead of the synthetic generator. The input is
// JSON lines, one publication per line:
//
//	{"title": "Mining Frequent Patterns", "authors": ["Wei Wang 0001", "Jiawei Han"],
//	 "venue": "SIGMOD", "year": 1999}
//
// Title terms are stop-word filtered and Porter-stemmed exactly as
// the paper preprocesses DBLP titles (Section 5.1), so term objects
// in the network line up with what document ingestion produces.
package bibload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"shine/internal/hin"
	"shine/internal/textproc"
)

// Publication is one bibliographic record.
type Publication struct {
	// Title is the paper title; its terms become term objects.
	Title string `json:"title"`
	// Authors are the author names, already disambiguated (DBLP-style
	// numeric suffixes distinguish namesakes).
	Authors []string `json:"authors"`
	// Venue is the publication venue name.
	Venue string `json:"venue"`
	// Year is the publication year; 0 omits the year link.
	Year int `json:"year"`
}

// Validate reports the first problem with the record.
func (p Publication) Validate() error {
	if strings.TrimSpace(p.Title) == "" {
		return fmt.Errorf("bibload: publication has no title")
	}
	if len(p.Authors) == 0 {
		return fmt.Errorf("bibload: publication %q has no authors", p.Title)
	}
	for _, a := range p.Authors {
		if strings.TrimSpace(a) == "" {
			return fmt.Errorf("bibload: publication %q has an empty author name", p.Title)
		}
	}
	if p.Year != 0 && (p.Year < 1000 || p.Year > 2999) {
		return fmt.Errorf("bibload: publication %q has implausible year %d", p.Title, p.Year)
	}
	return nil
}

// Stats summarises a load.
type Stats struct {
	Publications int
	// SkippedTerms counts title tokens dropped as stop words or empty
	// stems.
	SkippedTerms int
}

// Load reads JSON-lines publications and builds the network. Records
// failing validation abort the load with a line-numbered error: a
// silently partial network would corrupt every downstream
// probability.
func Load(r io.Reader) (*hin.DBLPSchema, *hin.Graph, Stats, error) {
	d := hin.NewDBLPSchema()
	b := hin.NewBuilder(d.Schema)
	var st Stats

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		var pub Publication
		if err := json.Unmarshal([]byte(raw), &pub); err != nil {
			return nil, nil, st, fmt.Errorf("bibload: line %d: %w", line, err)
		}
		if err := pub.Validate(); err != nil {
			return nil, nil, st, fmt.Errorf("bibload: line %d: %w", line, err)
		}
		if err := addPublication(d, b, pub, &st); err != nil {
			return nil, nil, st, fmt.Errorf("bibload: line %d: %w", line, err)
		}
		st.Publications++
	}
	if err := sc.Err(); err != nil {
		return nil, nil, st, fmt.Errorf("bibload: reading input: %w", err)
	}
	if st.Publications == 0 {
		return nil, nil, st, fmt.Errorf("bibload: no publications in input")
	}
	g := b.Build()
	if err := g.Validate(); err != nil {
		return nil, nil, st, fmt.Errorf("bibload: built graph invalid: %w", err)
	}
	return d, g, st, nil
}

// addPublication inserts one record's objects and links.
func addPublication(d *hin.DBLPSchema, b *hin.Builder, pub Publication, st *Stats) error {
	// Paper object names must be unique; the title alone may recur
	// (reprints), so include a sequence number.
	paper, err := b.AddObject(d.Paper, fmt.Sprintf("%s #%d", pub.Title, st.Publications))
	if err != nil {
		return err
	}
	for _, name := range pub.Authors {
		a, err := b.AddObject(d.Author, strings.Join(strings.Fields(name), " "))
		if err != nil {
			return err
		}
		if err := b.AddLink(d.Write, a, paper); err != nil {
			return err
		}
	}
	if v := strings.TrimSpace(pub.Venue); v != "" {
		venue, err := b.AddObject(d.Venue, v)
		if err != nil {
			return err
		}
		if err := b.AddLink(d.Publish, venue, paper); err != nil {
			return err
		}
	}
	for _, tok := range textproc.Tokenize(pub.Title) {
		if textproc.IsStopWord(tok.Lower) {
			st.SkippedTerms++
			continue
		}
		stem := textproc.NormalizeTerm(tok.Lower)
		if stem == "" {
			st.SkippedTerms++
			continue
		}
		term, err := b.AddObject(d.Term, stem)
		if err != nil {
			return err
		}
		if err := b.AddLink(d.Contain, paper, term); err != nil {
			return err
		}
	}
	if pub.Year != 0 {
		year, err := b.AddObject(d.Year, fmt.Sprintf("%d", pub.Year))
		if err != nil {
			return err
		}
		if err := b.AddLink(d.PublishedIn, paper, year); err != nil {
			return err
		}
	}
	return nil
}
