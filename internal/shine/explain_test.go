package shine

import (
	"errors"
	"math"
	"testing"

	"shine/internal/corpus"
	"shine/internal/hin"
	"shine/internal/metapath"
)

func TestExplainDecomposesExactly(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, nil)

	for _, doc := range f.corpus.Docs {
		ex, err := m.Explain(doc)
		if err != nil {
			t.Fatalf("Explain(%s): %v", doc.ID, err)
		}
		if ex.Entity != doc.Gold {
			t.Errorf("doc %s: explanation winner %d, want gold %d", doc.ID, ex.Entity, doc.Gold)
		}
		// Exact decomposition: popularity + object shares = margin.
		sum := ex.PopularityLogOdds
		for _, oc := range ex.Objects {
			sum += oc.LogOdds
		}
		if math.Abs(sum-ex.Margin) > 1e-9 {
			t.Errorf("doc %s: decomposition sums to %v, margin is %v", doc.ID, sum, ex.Margin)
		}
		if ex.Margin <= 0 {
			t.Errorf("doc %s: non-positive margin %v for the winner", doc.ID, ex.Margin)
		}
		// Sorted by decisiveness.
		for i := 1; i < len(ex.Objects); i++ {
			if math.Abs(ex.Objects[i].LogOdds) > math.Abs(ex.Objects[i-1].LogOdds)+1e-12 {
				t.Errorf("doc %s: objects not sorted by |log-odds|", doc.ID)
			}
		}
	}
}

func TestExplainIdentifiesDecisiveEvidence(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, nil)
	ex, err := m.Explain(f.docA)
	if err != nil {
		t.Fatal(err)
	}
	// For docA (the SIGMOD/mining document), the top evidence must
	// favour the winner, and it should be one of the community
	// signals (not the shared year).
	top := ex.Objects[0]
	if top.LogOdds <= 0 {
		t.Errorf("most decisive object works against the winner: %+v", top)
	}
}

func TestExplainSingleCandidate(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, nil)
	doc := corpus.NewDocument("x", "Eric Martin", f.ids["martin"],
		[]hin.ObjectID{f.ids["nips"]})
	ex, err := m.Explain(doc)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if ex.Entity != f.ids["martin"] || ex.RunnerUp != hin.NoObject {
		t.Errorf("single-candidate explanation = %+v", ex)
	}
	if len(ex.Objects) != 0 || ex.Margin != 0 {
		t.Errorf("single-candidate explanation carries evidence: %+v", ex)
	}
}

func TestExplainNoCandidates(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, nil)
	_, err := m.Explain(corpus.NewDocument("x", "Unknown Person", hin.NoObject, nil))
	if !errors.Is(err, ErrNoCandidates) {
		t.Errorf("err = %v", err)
	}
}

func TestExplainAgreesWithLink(t *testing.T) {
	ds := integrationDataset(t)
	d := ds.Data.Schema
	m, err := New(ds.Data.Graph, d.Author, metapath.DBLPPaperPaths(d), ds.Corpus, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Learn(ds.Corpus); err != nil {
		t.Fatal(err)
	}
	for _, doc := range ds.Corpus.Docs[:25] {
		r, err := m.Link(doc)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := m.Explain(doc)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Entity != r.Entity {
			t.Errorf("doc %s: Explain winner %d != Link winner %d", doc.ID, ex.Entity, r.Entity)
		}
		// Both score from the frozen mixtures, so the margin is Link's
		// log-joint gap to the bit.
		if len(r.Candidates) < 2 {
			continue
		}
		win, run := r.Candidates[0], r.Candidates[1]
		if ex.RunnerUp != run.Entity || math.Float64bits(ex.Margin) != math.Float64bits(win.LogJoint-run.LogJoint) {
			t.Errorf("doc %s: Explain runner-up %d, margin %v; Link runner-up %d, log-joint gap %v",
				doc.ID, ex.RunnerUp, ex.Margin, run.Entity, win.LogJoint-run.LogJoint)
		}
	}
}
