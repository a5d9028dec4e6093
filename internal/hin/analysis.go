package hin

import (
	"fmt"
	"math"
	"sort"
)

// DegreeSummary describes the degree distribution of one object type
// under one relation — the statistics the paper's setting depends on
// (Zipfian author productivity is what makes the popularity model
// informative) and that the synthetic generator is calibrated to
// reproduce.
type DegreeSummary struct {
	// Objects is the number of objects of the type.
	Objects int
	// Min, Max, Mean and Median summarise the degree distribution.
	Min, Max int
	Mean     float64
	Median   float64
	// P90 and P99 are upper percentiles.
	P90, P99 int
	// Gini is the Gini coefficient of the degrees: 0 for perfectly
	// uniform, approaching 1 for extreme concentration. Zipfian
	// distributions sit high (> 0.5).
	Gini float64
}

// DegreeDistribution computes the degree summary for objects of type
// t under relation rel.
func (g *Graph) DegreeDistribution(t TypeID, rel RelationID) (DegreeSummary, error) {
	objs := g.ObjectsOfType(t)
	if len(objs) == 0 {
		return DegreeSummary{}, fmt.Errorf("hin: no objects of type %d", t)
	}
	if rel < 0 || int(rel) >= g.schema.NumRelations() {
		return DegreeSummary{}, fmt.Errorf("hin: invalid relation %d", rel)
	}
	degrees := make([]int, len(objs))
	for i, v := range objs {
		degrees[i] = g.Degree(rel, v)
	}
	sort.Ints(degrees)

	s := DegreeSummary{
		Objects: len(objs),
		Min:     degrees[0],
		Max:     degrees[len(degrees)-1],
	}
	total := 0
	for _, d := range degrees {
		total += d
	}
	s.Mean = float64(total) / float64(len(degrees))
	s.Median = percentileSorted(degrees, 0.5)
	s.P90 = int(percentileSorted(degrees, 0.9))
	s.P99 = int(percentileSorted(degrees, 0.99))
	s.Gini = giniSorted(degrees, total)
	return s, nil
}

// percentileSorted returns the p-th percentile (0 < p <= 1) of a
// sorted int slice, with linear interpolation.
func percentileSorted(sorted []int, p float64) float64 {
	if len(sorted) == 1 {
		return float64(sorted[0])
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return float64(sorted[lo])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
}

// giniSorted computes the Gini coefficient of a sorted non-negative
// slice.
func giniSorted(sorted []int, total int) float64 {
	if total == 0 {
		return 0
	}
	n := float64(len(sorted))
	weighted := 0.0
	for i, d := range sorted {
		weighted += float64(i+1) * float64(d)
	}
	return (2*weighted)/(n*float64(total)) - (n+1)/n
}
