package pagerank

import (
	"fmt"
	"math"
	"testing"

	"shine/internal/hin"
)

// smallDelta appends a handful of new papers wired to existing objects
// — the "new papers arrive every minute" shape — and returns the
// merged graph.
func smallDelta(t testing.TB, g *hin.Graph, papers int) *hin.Graph {
	t.Helper()
	s := g.Schema()
	paperT, _ := s.TypeByName("paper")
	write, _ := s.RelationByName("write")
	publish, _ := s.RelationByName("publish")
	authorT, _ := s.TypeByName("author")
	venueT, _ := s.TypeByName("venue")
	authors := g.ObjectsOfType(authorT)
	venues := g.ObjectsOfType(venueT)

	d := g.Append()
	for i := 0; i < papers; i++ {
		p := d.MustAppend(paperT, fmt.Sprintf("delta-paper-%d", i))
		d.MustPatch(write, authors[i%len(authors)], p)
		d.MustPatch(publish, venues[i%len(venues)], p)
	}
	merged, _ := d.Merge()
	return merged
}

// edgeDelta stages the given number of new write links between
// existing authors and papers of the connected bulk — no new objects,
// so the teleport term is unchanged and only the rows around the new
// links move.
func edgeDelta(t testing.TB, g *hin.Graph, edges int) *hin.Graph {
	t.Helper()
	s := g.Schema()
	write, _ := s.RelationByName("write")
	authorT, _ := s.TypeByName("author")
	paperT, _ := s.TypeByName("paper")
	authors := g.ObjectsOfType(authorT)
	papers := g.ObjectsOfType(paperT)

	d := g.Append()
	for i := 0; i < edges; i++ {
		d.MustPatch(write, authors[(7*i)%len(authors)], papers[(13*i+5)%len(papers)])
	}
	merged, _ := d.Merge()
	return merged
}

func linf(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestRefineMatchesReferenceAfterDelta pins the warm-start correctness
// claim: after a small object-adding delta, Compute warm-started from
// the previous revision's scores lands within 1e-9 L∞ of
// ReferenceCompute on the new graph — the same bound the cold pull
// kernel is held to — at workers 1, 4 and 8, in fewer sweeps than a
// cold start.
func TestRefineMatchesReferenceAfterDelta(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := randomDBLP(t, seed, 40)
		opts := DefaultOptions()
		prev, err := Compute(g, opts)
		if err != nil {
			t.Fatalf("seed %d: cold Compute on base: %v", seed, err)
		}

		g2 := smallDelta(t, g, 3)
		cold, err := Compute(g2, opts)
		if err != nil {
			t.Fatalf("seed %d: cold Compute on merged: %v", seed, err)
		}
		oracle, err := ReferenceCompute(g2, opts)
		if err != nil {
			t.Fatalf("seed %d: ReferenceCompute: %v", seed, err)
		}

		opts.Warm = prev.Scores
		for _, workers := range []int{1, 4, 8} {
			opts.Workers = workers
			warm, err := Compute(g2, opts)
			if err != nil {
				t.Fatalf("seed %d workers %d: warm Compute: %v", seed, workers, err)
			}
			if !warm.Converged {
				t.Fatalf("seed %d workers %d: warm Compute did not converge (delta %g)", seed, workers, warm.Delta)
			}
			if d := linf(warm.Scores, oracle.Scores); d > 1e-9 {
				t.Errorf("seed %d workers %d: warm vs reference L∞ = %g, want <= 1e-9", seed, workers, d)
			}
			if d := linf(warm.Scores, cold.Scores); d > 1e-9 {
				t.Errorf("seed %d workers %d: warm vs cold Compute L∞ = %g, want <= 1e-9", seed, workers, d)
			}
			// An object-adding delta shifts the teleport term at every
			// vertex, so the head start is smaller than on an
			// edge-only delta (TestWarmStartEdgeOnlyDelta), but it
			// must still pay.
			if warm.Iterations >= cold.Iterations {
				t.Errorf("seed %d workers %d: warm Compute used %d sweeps, cold used %d — warm start is not paying off",
					seed, workers, warm.Iterations, cold.Iterations)
			}
			sum := 0.0
			for _, s := range warm.Scores {
				sum += s
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("seed %d workers %d: Σpr = %v, want 1", seed, workers, sum)
			}
		}
	}
}

// TestWarmStartEdgeOnlyDelta: new links between existing objects of a
// connected graph. Warm Compute lands within 1e-9 L∞ of
// ReferenceCompute in fewer sweeps than cold, and the warm path keeps
// the kernel's determinism contract: workers 1/4/8 are bit-identical.
func TestWarmStartEdgeOnlyDelta(t *testing.T) {
	g := randomDBLP(t, 7, 50)
	opts := DefaultOptions()
	prev, err := Compute(g, opts)
	if err != nil {
		t.Fatalf("cold Compute: %v", err)
	}
	g2 := edgeDelta(t, g, 5)
	if g2.NumObjects() != g.NumObjects() {
		t.Fatalf("edge-only delta added %d objects", g2.NumObjects()-g.NumObjects())
	}
	cold, err := Compute(g2, opts)
	if err != nil {
		t.Fatalf("cold Compute on merged: %v", err)
	}
	oracle, err := ReferenceCompute(g2, opts)
	if err != nil {
		t.Fatalf("ReferenceCompute: %v", err)
	}

	opts.Warm = prev.Scores
	opts.Workers = 1
	golden, err := Compute(g2, opts)
	if err != nil {
		t.Fatalf("warm Compute(workers=1): %v", err)
	}
	if !golden.Converged {
		t.Fatalf("warm Compute did not converge (delta %g)", golden.Delta)
	}
	if d := linf(golden.Scores, oracle.Scores); d > 1e-9 {
		t.Errorf("warm vs reference L∞ = %g, want <= 1e-9", d)
	}
	if golden.Iterations >= cold.Iterations {
		t.Errorf("warm Compute used %d sweeps, cold used %d", golden.Iterations, cold.Iterations)
	}
	for _, workers := range []int{4, 8} {
		opts.Workers = workers
		res, err := Compute(g2, opts)
		if err != nil {
			t.Fatalf("warm Compute(workers=%d): %v", workers, err)
		}
		if res.Iterations != golden.Iterations {
			t.Fatalf("workers=%d: %d sweeps, golden %d", workers, res.Iterations, golden.Iterations)
		}
		for v := range golden.Scores {
			if math.Float64bits(res.Scores[v]) != math.Float64bits(golden.Scores[v]) {
				t.Fatalf("workers=%d: score[%d] not bit-identical", workers, v)
			}
		}
	}
}

// TestWarmStartLocalDelta: an edge-only delta confined to a tiny
// component of a larger graph leaves the bulk at its fixed point, so
// warm power iteration certifies convergence in a couple of sweeps.
func TestWarmStartLocalDelta(t *testing.T) {
	d := hin.NewDBLPSchema()
	b := hin.NewBuilder(d.Schema)
	// Big component: a well-connected bulk.
	bigAuthors := make([]hin.ObjectID, 150)
	for i := range bigAuthors {
		bigAuthors[i] = b.MustAddObject(d.Author, fmt.Sprintf("big-author-%d", i))
	}
	bigVenue := b.MustAddObject(d.Venue, "big-venue")
	for i := 0; i < 300; i++ {
		p := b.MustAddObject(d.Paper, fmt.Sprintf("big-paper-%d", i))
		b.MustAddLink(d.Write, bigAuthors[i%len(bigAuthors)], p)
		b.MustAddLink(d.Publish, bigVenue, p)
	}
	// Tiny disconnected component the delta will land in.
	smallAuthor := b.MustAddObject(d.Author, "small-author")
	smallPapers := make([]hin.ObjectID, 4)
	for i := range smallPapers {
		smallPapers[i] = b.MustAddObject(d.Paper, fmt.Sprintf("small-paper-%d", i))
		b.MustAddLink(d.Write, smallAuthor, smallPapers[i])
	}
	g := b.Build()

	opts := DefaultOptions()
	prev, err := Compute(g, opts)
	if err != nil {
		t.Fatalf("cold Compute: %v", err)
	}

	// Edge-only delta inside the small component: no new objects, no
	// renormalisation — the change cannot reach the big component.
	delta := g.Append()
	delta.MustPatch(d.Write, smallAuthor, smallPapers[0])
	g2, _ := delta.Merge()

	cold, err := Compute(g2, opts)
	if err != nil {
		t.Fatalf("cold Compute on merged: %v", err)
	}
	opts.Warm = prev.Scores
	warm, err := Compute(g2, opts)
	if err != nil {
		t.Fatalf("warm Compute: %v", err)
	}
	if !warm.Converged {
		t.Fatalf("warm Compute did not converge (delta %g)", warm.Delta)
	}
	if warm.Iterations > 3 {
		t.Errorf("warm Compute needed %d sweeps on a local delta, want <= 3 (cold needed %d)",
			warm.Iterations, cold.Iterations)
	}
	if d := linf(warm.Scores, cold.Scores); d > 1e-9 {
		t.Errorf("warm vs cold L∞ = %g, want <= 1e-9", d)
	}
}

// TestComputeWarmOption: Compute with Options.Warm set converges to
// the same fixed point from the supplied iterate, in fewer sweeps.
func TestComputeWarmOption(t *testing.T) {
	g := randomDBLP(t, 11, 40)
	opts := DefaultOptions()
	prev, err := Compute(g, opts)
	if err != nil {
		t.Fatalf("cold Compute: %v", err)
	}
	g2 := smallDelta(t, g, 2)
	cold, err := Compute(g2, opts)
	if err != nil {
		t.Fatalf("cold Compute on merged: %v", err)
	}
	opts.Warm = prev.Scores
	warm, err := Compute(g2, opts)
	if err != nil {
		t.Fatalf("warm Compute: %v", err)
	}
	if !warm.Converged {
		t.Fatalf("warm Compute did not converge (delta %g)", warm.Delta)
	}
	if d := linf(warm.Scores, cold.Scores); d > 1e-9 {
		t.Errorf("warm vs cold L∞ = %g, want <= 1e-9", d)
	}
	if warm.Iterations >= cold.Iterations {
		t.Errorf("warm Compute used %d iterations, cold used %d", warm.Iterations, cold.Iterations)
	}
}

// TestRefineIdenticalGraph: warm-starting on an unchanged graph
// certifies convergence on the first sweep.
func TestRefineIdenticalGraph(t *testing.T) {
	g := randomDBLP(t, 13, 30)
	opts := DefaultOptions()
	prev, err := Compute(g, opts)
	if err != nil {
		t.Fatalf("cold Compute: %v", err)
	}
	opts.Warm = prev.Scores
	warm, err := Compute(g, opts)
	if err != nil {
		t.Fatalf("warm Compute: %v", err)
	}
	if !warm.Converged || warm.Iterations != 1 {
		t.Errorf("no-op warm start = %d sweeps, converged=%v; want 1, true",
			warm.Iterations, warm.Converged)
	}
}

func TestWarmValidation(t *testing.T) {
	_, g, _, _ := starDBLP(t, 3)
	opts := DefaultOptions()
	n := g.NumObjects()

	opts.Warm = make([]float64, n+1)
	if _, err := Compute(g, opts); err == nil {
		t.Error("oversized warm vector accepted")
	}
	opts.Warm = []float64{math.NaN()}
	if _, err := Compute(g, opts); err == nil {
		t.Error("NaN warm score accepted")
	}
	opts.Warm = []float64{-1}
	if _, err := Compute(g, opts); err == nil {
		t.Error("negative warm score accepted")
	}
}
