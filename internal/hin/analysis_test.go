package hin

import (
	"fmt"
	"math"
	"testing"
)

// degreeGraph: three authors with 1, 2 and 5 papers.
func degreeGraph(t testing.TB) (*DBLPSchema, *Graph) {
	t.Helper()
	d := NewDBLPSchema()
	b := NewBuilder(d.Schema)
	counts := []int{1, 2, 5}
	for ai, n := range counts {
		a := b.MustAddObject(d.Author, fmt.Sprintf("a%d", ai))
		for i := 0; i < n; i++ {
			p := b.MustAddObject(d.Paper, fmt.Sprintf("p%d-%d", ai, i))
			b.MustAddLink(d.Write, a, p)
		}
	}
	return d, b.Build()
}

func TestDegreeDistribution(t *testing.T) {
	d, g := degreeGraph(t)
	s, err := g.DegreeDistribution(d.Author, d.Write)
	if err != nil {
		t.Fatalf("DegreeDistribution: %v", err)
	}
	if s.Objects != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Mean-8.0/3) > 1e-12 {
		t.Errorf("Mean = %v", s.Mean)
	}
	if s.Median != 2 {
		t.Errorf("Median = %v", s.Median)
	}
	// Gini of [1,2,5]: 2*(1*1+2*2+3*5)/(3*8) - 4/3 = 40/24 - 4/3 = 1/3.
	if math.Abs(s.Gini-1.0/3) > 1e-12 {
		t.Errorf("Gini = %v, want 1/3", s.Gini)
	}
}

func TestDegreeDistributionUniformGiniZero(t *testing.T) {
	d := NewDBLPSchema()
	b := NewBuilder(d.Schema)
	for ai := 0; ai < 4; ai++ {
		a := b.MustAddObject(d.Author, fmt.Sprintf("a%d", ai))
		p := b.MustAddObject(d.Paper, fmt.Sprintf("p%d", ai))
		b.MustAddLink(d.Write, a, p)
	}
	g := b.Build()
	s, err := g.DegreeDistribution(d.Author, d.Write)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Gini) > 1e-12 {
		t.Errorf("uniform degrees Gini = %v, want 0", s.Gini)
	}
}

func TestDegreeDistributionErrors(t *testing.T) {
	d, g := degreeGraph(t)
	if _, err := g.DegreeDistribution(d.Venue, d.Write); err == nil {
		t.Error("empty type accepted")
	}
	if _, err := g.DegreeDistribution(d.Author, RelationID(99)); err == nil {
		t.Error("invalid relation accepted")
	}
}

func TestPercentileSorted(t *testing.T) {
	if got := percentileSorted([]int{10}, 0.9); got != 10 {
		t.Errorf("single element percentile = %v", got)
	}
	if got := percentileSorted([]int{0, 10}, 0.5); got != 5 {
		t.Errorf("interpolated median = %v", got)
	}
}
