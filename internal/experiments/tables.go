package experiments

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"text/tabwriter"

	"shine/internal/eval"
	"shine/internal/hin"
	"shine/internal/pagerank"

	"shine/internal/baselines"
	"shine/internal/corpus"
	"shine/internal/shine"
	"shine/internal/surftrie"
)

// ---------------------------------------------------------------- Table 2

// Table2Row is one candidate entity of the example group with its
// popularity (paper's Table 2).
type Table2Row struct {
	Entity     hin.ObjectID
	Name       string
	Papers     int
	Popularity float64
}

// Table2Result reproduces Table 2: PageRank-based entity popularity
// for every candidate of the most ambiguous surface name. The
// expected shape: the most prolific candidate has the highest
// popularity and the least prolific the lowest.
type Table2Result struct {
	Surface string
	Rows    []Table2Row
}

// Table2 computes the popularity of every candidate in the largest
// ambiguity group.
func (e *Env) Table2() (*Table2Result, error) {
	grp, err := e.largestGroup()
	if err != nil {
		return nil, err
	}
	res, err := pagerank.Compute(e.DS.Data.Graph, pagerank.DefaultOptions())
	if err != nil {
		return nil, err
	}
	pop, err := pagerank.EntityPopularity(e.DS.Data.Graph, res.Scores, e.DS.Data.Schema.Author)
	if err != nil {
		return nil, err
	}
	out := &Table2Result{Surface: grp.Surface}
	for _, m := range grp.Members {
		out.Rows = append(out.Rows, Table2Row{
			Entity:     m,
			Name:       e.DS.Data.Graph.Name(m),
			Papers:     e.DS.Data.PaperCount[m],
			Popularity: pop[m],
		})
	}
	slices.SortFunc(out.Rows, func(a, b Table2Row) int { return cmp.Compare(b.Popularity, a.Popularity) })
	return out, nil
}

// WriteTo renders the table.
func (r *Table2Result) WriteTo(w io.Writer) (int64, error) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Table 2: entity popularity for candidates of %q\n", r.Surface)
	fmt.Fprintln(tw, "candidate\tpapers\tpopularity")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%.4g\n", row.Name, row.Papers, row.Popularity)
	}
	return 0, tw.Flush()
}

// ---------------------------------------------------------------- Table 3

// Table3Row is one meta-path with its semantic gloss.
type Table3Row struct {
	Path     string
	Length   int
	Semantic string
}

// Table3Semantics maps each Table 3 meta-path notation to the paper's
// semantic description of the relation it denotes.
func Table3Semantics() map[string]string {
	return map[string]string{
		"A-P-A":     "Authors who coauthor with author e",
		"A-P-A-P-A": "Authors who coauthor with the coauthors of author e",
		"A-P-V-P-A": "Authors who publish papers in the same venues as author e's papers",
		"A-P-V":     "Venues where author e publishes papers",
		"A-P-A-P-V": "Venues where the coauthors of author e publish papers",
		"A-P-T-P-V": "Venues that publish papers containing the same title terms as author e's papers",
		"A-P-T":     "Terms that author e's papers contain",
		"A-P-A-P-T": "Terms that the papers of author e's coauthors contain",
		"A-P-V-P-T": "Terms contained in papers published in the same venues as author e's papers",
		"A-P-Y":     "Years when author e's papers are published",
	}
}

// Table3 lists the meta-path set used by SHINEall, with the paper's
// semantic descriptions (Table 3).
func (e *Env) Table3() []Table3Row {
	semantics := Table3Semantics()
	rows := make([]Table3Row, 0, len(e.Paths10))
	for _, p := range e.Paths10 {
		rows = append(rows, Table3Row{Path: p.String(), Length: p.Len(), Semantic: semantics[p.String()]})
	}
	return rows
}

// ---------------------------------------------------------------- Table 4

// Table4Row is one VSim configuration's result.
type Table4Row struct {
	TypeSet  string
	Correct  int
	Accuracy float64
}

// Table4Result reproduces Table 4: VSim accuracy per object type
// subset. Expected shape: every single type helps (year weakest by
// far), and the union of all four types is best or near-best.
type Table4Result struct {
	Rows []Table4Row
}

// Table4 evaluates VSim under the paper's nine object type subsets.
func (e *Env) Table4() (*Table4Result, error) {
	d := e.DS.Data.Schema
	subsets := []struct {
		name  string
		types []hin.TypeID
	}{
		{"Coauthor", []hin.TypeID{d.Author}},
		{"Venue", []hin.TypeID{d.Venue}},
		{"Term", []hin.TypeID{d.Term}},
		{"Year", []hin.TypeID{d.Year}},
		{"Coauthor+Venue", []hin.TypeID{d.Author, d.Venue}},
		{"Coauthor+Term", []hin.TypeID{d.Author, d.Term}},
		{"Venue+Term", []hin.TypeID{d.Venue, d.Term}},
		{"Coauthor+Venue+Term", []hin.TypeID{d.Author, d.Venue, d.Term}},
		{"Coauthor+Venue+Term+Year", []hin.TypeID{d.Author, d.Venue, d.Term, d.Year}},
	}
	// One candidate index serves every subset: only the profile types
	// differ between them.
	trie, err := surftrie.Build(e.DS.Data.Graph, d.Author)
	if err != nil {
		return nil, err
	}
	out := &Table4Result{}
	for _, sub := range subsets {
		vs, err := baselines.NewVSim(e.DS.Data.Graph, d.Author, trie, sub.types...)
		if err != nil {
			return nil, err
		}
		s, err := eval.Evaluate(vs, e.DS.Corpus)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Table4Row{TypeSet: sub.name, Correct: s.Correct, Accuracy: s.Accuracy})
	}
	return out, nil
}

// WriteTo renders the table.
func (r *Table4Result) WriteTo(w io.Writer) (int64, error) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Table 4: VSim with different object type sets")
	fmt.Fprintln(tw, "object type set\t# correctly linked\taccuracy")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\n", row.TypeSet, row.Correct, row.Accuracy)
	}
	return 0, tw.Flush()
}

// ---------------------------------------------------------------- Table 5

// Table5Row is one approach's result.
type Table5Row struct {
	Approach string
	Correct  int
	Accuracy float64
}

// Table5Result reproduces Table 5: all six approaches on the full
// corpus. Expected shape, as in the paper:
//
//	POP < VSim < SHINE4-eom ≤ SHINE4 ≤ SHINEall-eom ≤ SHINEall
//
// i.e. context beats popularity alone, the object model beats raw
// vector similarity, PageRank popularity beats uniform when combined
// with the object model, and more meta-paths beat fewer.
type Table5Result struct {
	Rows []Table5Row
}

// Table5 evaluates POP, VSim and the four SHINE configurations.
func (e *Env) Table5() (*Table5Result, error) {
	d := e.DS.Data.Schema
	out := &Table5Result{}
	add := func(name string, s eval.Summary) {
		out.Rows = append(out.Rows, Table5Row{Approach: name, Correct: s.Correct, Accuracy: s.Accuracy})
	}

	pop, err := baselines.NewPOP(e.DS.Data.Graph, d.Author, nil, pagerank.DefaultOptions())
	if err != nil {
		return nil, err
	}
	s, err := eval.Evaluate(pop, e.DS.Corpus)
	if err != nil {
		return nil, err
	}
	add("POP", s)

	vs, err := baselines.NewVSim(e.DS.Data.Graph, d.Author, nil, d.Author, d.Venue, d.Term, d.Year)
	if err != nil {
		return nil, err
	}
	if s, err = eval.Evaluate(vs, e.DS.Corpus); err != nil {
		return nil, err
	}
	add("VSim", s)

	uniform := func(c *shine.Config) { c.Popularity = shine.PopularityUniform }
	if s, _, err = e.evaluateShine(e.Paths4, uniform, e.DS.Corpus); err != nil {
		return nil, err
	}
	add("SHINE4-eom", s)
	if s, _, err = e.evaluateShine(e.Paths4, nil, e.DS.Corpus); err != nil {
		return nil, err
	}
	add("SHINE4", s)
	if s, _, err = e.evaluateShine(e.Paths10, uniform, e.DS.Corpus); err != nil {
		return nil, err
	}
	add("SHINEall-eom", s)
	if s, _, err = e.evaluateShine(e.Paths10, nil, e.DS.Corpus); err != nil {
		return nil, err
	}
	add("SHINEall", s)
	return out, nil
}

// WriteTo renders the table.
func (r *Table5Result) WriteTo(w io.Writer) (int64, error) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Table 5: experimental results of all approaches")
	fmt.Fprintln(tw, "approach\t# correctly linked\taccuracy")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\n", row.Approach, row.Correct, row.Accuracy)
	}
	return 0, tw.Flush()
}

// ---------------------------------------------------------------- Figure 3

// Figure3Row is one (candidate, object) probability.
type Figure3Row struct {
	Candidate string
	Object    string
	Type      string
	Prob      float64
}

// Figure3 reproduces the Figure 3 illustration: for the first
// document mentioning the most ambiguous name, the entity-specific
// object model probability Pe(v) of each document object under the
// three most popular candidates.
func (e *Env) Figure3() ([]Figure3Row, error) {
	grp, err := e.largestGroup()
	if err != nil {
		return nil, err
	}
	var doc *corpus.Document
	for _, dd := range e.DS.Corpus.Docs {
		if dd.Mention == grp.Surface {
			doc = dd
			break
		}
	}
	if doc == nil {
		return nil, fmt.Errorf("experiments: no document mentions %q", grp.Surface)
	}
	t2, err := e.Table2()
	if err != nil {
		return nil, err
	}
	top := t2.Rows
	if len(top) > 3 {
		top = top[:3]
	}
	m, err := e.newModel(e.Paths10, nil)
	if err != nil {
		return nil, err
	}
	g := e.DS.Data.Graph
	var rows []Figure3Row
	for _, cand := range top {
		for _, oc := range doc.Objects {
			p, err := m.EntitySpecificProb(cand.Entity, oc.Object)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Figure3Row{
				Candidate: cand.Name,
				Object:    g.Name(oc.Object),
				Type:      g.Schema().Type(g.TypeOf(oc.Object)).Abbrev,
				Prob:      p,
			})
		}
	}
	return rows, nil
}
