package metapath

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"shine/internal/hin"
)

// randomDBLP builds a random DBLP-schema graph for walk property
// tests.
func randomDBLP(seed int64) (*hin.DBLPSchema, *hin.Graph, []hin.ObjectID) {
	rng := rand.New(rand.NewSource(seed))
	d := hin.NewDBLPSchema()
	b := hin.NewBuilder(d.Schema)
	nAuthors := 1 + rng.Intn(8)
	authors := make([]hin.ObjectID, nAuthors)
	for i := range authors {
		authors[i] = b.MustAddObject(d.Author, fmt.Sprintf("a%d", i))
	}
	venue := b.MustAddObject(d.Venue, "V")
	term := b.MustAddObject(d.Term, "t")
	for i := 0; i < 1+rng.Intn(15); i++ {
		p := b.MustAddObject(d.Paper, fmt.Sprintf("p%d", i))
		for k := rng.Intn(3); k > 0; k-- {
			b.MustAddLink(d.Write, authors[rng.Intn(nAuthors)], p)
		}
		if rng.Intn(3) > 0 {
			b.MustAddLink(d.Publish, venue, p)
		}
		if rng.Intn(3) > 0 {
			b.MustAddLink(d.Contain, p, term)
		}
	}
	return d, b.Build(), authors
}

// TestQuickWalksAreSubProbability: every meta-path walk yields
// non-negative entries summing to at most 1 (mass may die at dead
// ends, never appear from nowhere).
func TestQuickWalksAreSubProbability(t *testing.T) {
	f := func(seed int64) bool {
		d, g, authors := randomDBLP(seed)
		w := NewWalker(g, 64)
		for _, p := range DBLPPaperPaths(d) {
			for _, a := range authors {
				dist, err := w.Walk(context.Background(), a, p, 0)
				if err != nil {
					return false
				}
				sum := 0.0
				ok := true
				_, distVal := dist.Raw()
				for _, x := range distVal {
					if x < 0 {
						ok = false
					}
					sum += x
				}
				if !ok || sum > 1+1e-9 {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickWalkEndTypesRespectPath: every object with mass after a
// walk has the path's end type.
func TestQuickWalkEndTypesRespectPath(t *testing.T) {
	f := func(seed int64) bool {
		d, g, authors := randomDBLP(seed)
		w := NewWalker(g, 64)
		for _, p := range DBLPPaperPaths(d) {
			end := endType(d.Schema, p)
			for _, a := range authors {
				dist, err := w.Walk(context.Background(), a, p, 0)
				if err != nil {
					return false
				}
				ok := true
				distIdx, _ := dist.Raw()
				for _, i := range distIdx {
					if g.TypeOf(hin.ObjectID(i)) != end {
						ok = false
					}
				}
				if !ok {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickPrunedDominatedByExact: pruned walks are entry-wise lower
// bounds on exact walks.
func TestQuickPrunedDominatedByExact(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		d, g, authors := randomDBLP(seed)
		k := int(kRaw%8) + 1
		w := NewWalker(g, 64)
		p := MustParse(d.Schema, "A-P-A-P-V")
		for _, a := range authors {
			exact, err := w.Walk(context.Background(), a, p, 0)
			if err != nil {
				return false
			}
			pruned, err := w.Walk(context.Background(), a, p, k)
			if err != nil {
				return false
			}
			if pruned.Len() > k {
				return false
			}
			ok := true
			prunedIdx, prunedVal := pruned.Raw()
			for k, i := range prunedIdx {
				x := prunedVal[k]
				if x > exact.Get(i)+1e-12 {
					ok = false
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
