package corpus

import (
	"math"
	"testing"

	"shine/internal/hin"
)

func TestNewDocumentSortsAndDeduplicates(t *testing.T) {
	d := NewDocument("d1", "Wei Wang", hin.ObjectID(7),
		[]hin.ObjectID{5, 3, 5, 5, 1})
	if len(d.Objects) != 3 {
		t.Fatalf("got %d distinct objects, want 3", len(d.Objects))
	}
	want := []ObjectCount{{1, 1}, {3, 1}, {5, 3}}
	for i, oc := range d.Objects {
		if oc != want[i] {
			t.Errorf("Objects[%d] = %+v, want %+v", i, oc, want[i])
		}
	}
	if d.TotalCount() != 5 {
		t.Errorf("TotalCount = %d, want 5", d.TotalCount())
	}
}

func TestEmptyDocument(t *testing.T) {
	d := NewDocument("d", "m", hin.NoObject, nil)
	if d.TotalCount() != 0 || len(d.Objects) != 0 {
		t.Errorf("empty document has objects: %+v", d)
	}
}

func TestCorpusSubset(t *testing.T) {
	c := &Corpus{}
	for i := 0; i < 5; i++ {
		c.Add(NewDocument("d", "m", hin.NoObject, []hin.ObjectID{hin.ObjectID(i)}))
	}
	sub, err := c.Subset(3)
	if err != nil {
		t.Fatalf("Subset: %v", err)
	}
	if sub.Len() != 3 {
		t.Errorf("Subset len = %d", sub.Len())
	}
	if _, err := c.Subset(6); err == nil {
		t.Error("oversized subset accepted")
	}
	if _, err := c.Subset(-1); err == nil {
		t.Error("negative subset accepted")
	}
}

func TestEstimateGeneric(t *testing.T) {
	c := &Corpus{}
	c.Add(NewDocument("d1", "m", hin.NoObject, []hin.ObjectID{1, 1, 2}))
	c.Add(NewDocument("d2", "m", hin.NoObject, []hin.ObjectID{2}))
	g, err := EstimateGeneric(c)
	if err != nil {
		t.Fatalf("EstimateGeneric: %v", err)
	}
	if math.Abs(g.Prob(1)-0.5) > 1e-12 {
		t.Errorf("Pg(1) = %v, want 0.5", g.Prob(1))
	}
	if math.Abs(g.Prob(2)-0.5) > 1e-12 {
		t.Errorf("Pg(2) = %v, want 0.5", g.Prob(2))
	}
	if g.Prob(99) != 0 {
		t.Errorf("Pg(unseen) = %v, want 0", g.Prob(99))
	}
	if n := g.Vector().Len(); n != 2 {
		t.Errorf("support = %d, want 2", n)
	}
	if !g.Vector().IsDistribution(1e-12) {
		t.Error("generic model is not a distribution")
	}
}

func TestEstimateGenericEmptyCorpus(t *testing.T) {
	if _, err := EstimateGeneric(&Corpus{}); err == nil {
		t.Error("empty corpus accepted")
	}
	c := &Corpus{}
	c.Add(NewDocument("d", "m", hin.NoObject, nil))
	if _, err := EstimateGeneric(c); err == nil {
		t.Error("object-free corpus accepted")
	}
}

// countOf returns the document's occurrence count of v (0 if absent).
func countOf(d *Document, v hin.ObjectID) int {
	for _, oc := range d.Objects {
		if oc.Object == v {
			return oc.Count
		}
	}
	return 0
}
