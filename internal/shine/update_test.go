package shine

import (
	"context"
	"fmt"
	"math"
	"testing"

	"shine/internal/hin"
	"shine/internal/metapath"
	"shine/internal/synth"
)

// stageW2Paper stages an edge-heavy delta confined to Wei Wang 0002's
// community: one new paper written by w2 and martin, published at
// NIPS, containing existing terms. No new entity-type objects.
func stageW2Paper(f *fixture) *hin.Delta {
	d := f.g.Append()
	p := d.MustAppend(f.d.Paper, "w2-delta-paper")
	d.MustPatch(f.d.Write, f.ids["w2"], p)
	d.MustPatch(f.d.Write, f.ids["martin"], p)
	d.MustPatch(f.d.Publish, f.ids["nips"], p)
	d.MustPatch(f.d.Contain, p, f.ids["neural"])
	return d
}

// coldRebuild merges the same delta from scratch and builds a fresh
// model over it — the expensive baseline WithDelta must match.
func coldRebuild(t *testing.T, f *fixture, d *hin.Delta, mutate func(*Config)) *Model {
	t.Helper()
	g2, _ := d.Merge()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := New(g2, f.d.Author, metapath.DBLPPaperPaths(f.d), f.corpus, cfg)
	if err != nil {
		t.Fatalf("New on merged graph: %v", err)
	}
	return m
}

// TestWithDeltaPosteriorsBitIdenticalUniform pins the strongest
// equivalence the incremental path offers: under uniform popularity,
// with a delta that adds no entity-type objects, every candidate's
// LogJoint and Posterior after WithDelta is bit-identical to a cold
// rebuild — migrated mixtures included, because an unaffected entity's
// walks traverse byte-identical CSR rows on either graph.
func TestWithDeltaPosteriorsBitIdenticalUniform(t *testing.T) {
	f := newFixture(t)
	uniform := func(c *Config) { c.Popularity = PopularityUniform }
	m1 := newModel(t, f, uniform)
	// Warm both mentions so migrated mixtures are actually exercised.
	for _, doc := range f.corpus.Docs {
		if _, err := m1.Link(doc); err != nil {
			t.Fatalf("warm Link: %v", err)
		}
	}

	delta := stageW2Paper(f)
	m2, stats, err := m1.WithDelta(delta)
	if err != nil {
		t.Fatalf("WithDelta: %v", err)
	}
	if stats.NewObjects != 1 || stats.NewEdges != 4 {
		t.Errorf("stats = %+v, want 1 new object, 4 new edges", stats)
	}
	if stats.TrieRebuilt {
		t.Error("trie rebuilt for a delta with no new entities")
	}
	mCold := coldRebuild(t, f, delta, uniform)

	for _, doc := range f.corpus.Docs {
		inc, err := m2.Link(doc)
		if err != nil {
			t.Fatalf("incremental Link(%s): %v", doc.ID, err)
		}
		cold, err := mCold.Link(doc)
		if err != nil {
			t.Fatalf("cold Link(%s): %v", doc.ID, err)
		}
		if inc.Entity != cold.Entity {
			t.Fatalf("doc %s: incremental links %d, cold links %d", doc.ID, inc.Entity, cold.Entity)
		}
		if len(inc.Candidates) != len(cold.Candidates) {
			t.Fatalf("doc %s: candidate sets differ", doc.ID)
		}
		for i := range inc.Candidates {
			ic, cc := inc.Candidates[i], cold.Candidates[i]
			if ic.Entity != cc.Entity ||
				math.Float64bits(ic.LogJoint) != math.Float64bits(cc.LogJoint) ||
				math.Float64bits(ic.Posterior) != math.Float64bits(cc.Posterior) {
				t.Errorf("doc %s candidate %d: incremental (%d, %x, %x) vs cold (%d, %x, %x)",
					doc.ID, i,
					ic.Entity, math.Float64bits(ic.LogJoint), math.Float64bits(ic.Posterior),
					cc.Entity, math.Float64bits(cc.LogJoint), math.Float64bits(cc.Posterior))
			}
		}
	}
}

// TestWithDeltaPageRankEquivalence: in centrality mode the refresh —
// warm-started for pagerank and ppr, cold for hits — converges to the
// same tolerance as a cold rebuild, on an object-adding and on an
// edge-only delta, so popularity agrees to 1e-9 and linking decisions
// are unchanged.
func TestWithDeltaPageRankEquivalence(t *testing.T) {
	f := newFixture(t)
	w1p5, ok := f.g.Lookup(f.d.Paper, "w1-p5")
	if !ok {
		t.Fatal("fixture lost paper w1-p5")
	}
	deltas := []struct {
		name  string
		stage func() *hin.Delta
	}{
		{"object-adding", func() *hin.Delta { return stageW2Paper(f) }},
		{"edge-only", func() *hin.Delta {
			d := f.g.Append()
			d.MustPatch(f.d.Write, f.ids["muntz"], w1p5)
			return d
		}},
	}
	for _, backend := range []string{"pagerank", "ppr", "hits"} {
		for _, dc := range deltas {
			t.Run(backend+"/"+dc.name, func(t *testing.T) {
				withBackend := func(c *Config) { c.Centrality = backend }
				m1 := newModel(t, f, withBackend)
				delta := dc.stage()
				m2, stats, err := m1.WithDelta(delta)
				if err != nil {
					t.Fatalf("WithDelta: %v", err)
				}
				mCold := coldRebuild(t, f, delta, withBackend)
				// hits ignores the warm start; the others must use it.
				warm := backend != "hits"
				if stats.PageRankIterations == 0 ||
					(stats.PageRankIterations < mCold.prIterations) != warm {
					t.Errorf("refresh took %d sweeps, cold rebuild %d; warm start expected: %v",
						stats.PageRankIterations, mCold.prIterations, warm)
				}

				for _, a := range m2.Graph().ObjectsOfType(f.d.Author) {
					if d := math.Abs(m2.Popularity(a) - mCold.Popularity(a)); d > 1e-9 {
						t.Errorf("popularity of author %d differs by %g", a, d)
					}
				}
				for _, doc := range f.corpus.Docs {
					inc, err := m2.Link(doc)
					if err != nil {
						t.Fatalf("incremental Link(%s): %v", doc.ID, err)
					}
					cold, err := mCold.Link(doc)
					if err != nil {
						t.Fatalf("cold Link(%s): %v", doc.ID, err)
					}
					if inc.Entity != cold.Entity {
						t.Errorf("doc %s: incremental links %d, cold links %d", doc.ID, inc.Entity, cold.Entity)
					}
					for i := range inc.Candidates {
						if d := math.Abs(inc.Candidates[i].Posterior - cold.Candidates[i].Posterior); d > 1e-6 {
							t.Errorf("doc %s candidate %d: posterior differs by %g", doc.ID, i, d)
						}
					}
				}
			})
		}
	}
}

// TestWithDeltaInvalidationKeying pins the point of per-entity
// invalidation: a delta inside one community leaves the other
// community's frozen mixture serving — no rebuild, no recomputation —
// while entities inside the ball are dropped and rebuilt on demand.
func TestWithDeltaInvalidationKeying(t *testing.T) {
	f := newFixture(t)
	m1 := newModel(t, f, func(c *Config) { c.Popularity = PopularityUniform })
	// Build mixtures for one entity on each side of the graph.
	probe := f.ids["mine"]
	if _, err := m1.EntitySpecificProb(f.ids["w1"], probe); err != nil {
		t.Fatalf("probe w1: %v", err)
	}
	if _, err := m1.EntitySpecificProb(f.ids["w2"], probe); err != nil {
		t.Fatalf("probe w2: %v", err)
	}

	delta := stageW2Paper(f)
	m2, stats, err := m1.WithDelta(delta)
	if err != nil {
		t.Fatalf("WithDelta: %v", err)
	}
	if stats.MixturesKept != 1 || stats.MixturesDropped != 1 {
		t.Errorf("mixtures kept/dropped = %d/%d, want 1/1", stats.MixturesKept, stats.MixturesDropped)
	}
	// w2's whole community is inside the radius-(maxLen-1) ball; w1's
	// community is disconnected from it, so nothing there is affected.
	if stats.AffectedObjects >= m2.Graph().NumObjects() {
		t.Errorf("affected %d of %d objects — invalidation is not selective",
			stats.AffectedObjects, m2.Graph().NumObjects())
	}

	// The surviving community serves from cache: probing w1 must not
	// build anything, probing w2 must rebuild exactly once.
	b0 := m2.MixtureStats().Builds
	if _, err := m2.EntitySpecificProb(f.ids["w1"], probe); err != nil {
		t.Fatalf("probe w1 on new model: %v", err)
	}
	if b := m2.MixtureStats().Builds; b != b0 {
		t.Errorf("probing an unaffected entity rebuilt its mixture (builds %d -> %d)", b0, b)
	}
	if _, err := m2.EntitySpecificProb(f.ids["w2"], probe); err != nil {
		t.Fatalf("probe w2 on new model: %v", err)
	}
	if b := m2.MixtureStats().Builds; b != b0+1 {
		t.Errorf("probing an affected entity built %d mixtures, want 1", b-b0)
	}
}

// TestWithDeltaNewEntityRebuildsTrie: adding an entity-type object
// forces a surface-form reindex, and the new entity is immediately
// linkable.
func TestWithDeltaNewEntityRebuildsTrie(t *testing.T) {
	f := newFixture(t)
	m1 := newModel(t, f, func(c *Config) { c.Popularity = PopularityUniform })
	d := f.g.Append()
	a := d.MustAppend(f.d.Author, "Grace Hopper")
	p := d.MustAppend(f.d.Paper, "gh-p0")
	d.MustPatch(f.d.Write, a, p)
	d.MustPatch(f.d.Publish, f.ids["sigmod"], p)

	m2, stats, err := m1.WithDelta(d)
	if err != nil {
		t.Fatalf("WithDelta: %v", err)
	}
	if !stats.TrieRebuilt {
		t.Error("trie not rebuilt despite a new entity-type object")
	}
	cands := m2.Candidates("Grace Hopper")
	if len(cands) != 1 || cands[0] != a {
		t.Errorf("Candidates(new entity) = %v, want [%d]", cands, a)
	}
	if m1.Candidates("Grace Hopper") != nil {
		t.Error("old generation's candidate index saw the new entity")
	}
}

// TestWithDeltaValidation covers the error paths.
func TestWithDeltaValidation(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, func(c *Config) { c.Popularity = PopularityUniform })
	if _, _, err := m.WithDelta(nil); err == nil {
		t.Error("nil delta accepted")
	}
	other := newFixture(t)
	if _, _, err := m.WithDelta(other.g.Append()); err == nil {
		t.Error("delta staged against a foreign graph accepted")
	}
}

// TestWithDeltaChained applies several deltas back to back, checking
// each generation keeps linking correctly and keeps the fuzzy fallback
// distance, and the graph grows as the merged stats claim.
func TestWithDeltaChained(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, func(c *Config) { c.Popularity = PopularityUniform })
	if err := m.SetFuzzyDistance(1); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		d := m.Graph().Append()
		p := d.MustAppend(f.d.Paper, fmt.Sprintf("chain-p%d", round))
		d.MustPatch(f.d.Write, f.ids["w1"], p)
		d.MustPatch(f.d.Publish, f.ids["sigmod"], p)
		next, stats, err := m.WithDelta(d)
		if err != nil {
			t.Fatalf("round %d: WithDelta: %v", round, err)
		}
		if stats.NewObjects != 1 || stats.NewEdges != 2 {
			t.Fatalf("round %d: stats = %+v", round, stats)
		}
		m = next
		r, err := m.Link(f.docA)
		if err != nil {
			t.Fatalf("round %d: Link: %v", round, err)
		}
		if r.Entity != f.ids["w1"] {
			t.Fatalf("round %d: linked %d, want %d", round, r.Entity, f.ids["w1"])
		}
		if got := m.FuzzyDistance(); got != 1 {
			t.Fatalf("round %d: fuzzy distance %d, want 1", round, got)
		}
	}
	if got := m.Graph().NumObjects(); got != f.g.NumObjects()+5 {
		t.Errorf("final graph has %d objects, want %d", got, f.g.NumObjects()+5)
	}
}

// TestAffectedSourcesSoundness pins the typed invalidation against a
// brute-force oracle on a generated network: after a mixed delta — a
// new paper wired into an existing venue and term community, a
// brand-new author/venue pair, and a pure edge patch between existing
// objects — every entity NOT marked affected must produce
// bit-identical walk distributions on the old and merged graphs for
// every model meta-path. Precision is sanity-checked both ways: the
// delta must invalidate someone, and must not invalidate everyone.
func TestAffectedSourcesSoundness(t *testing.T) {
	cfg := synth.DefaultDBLPConfig()
	cfg.RegularAuthors = 48
	cfg.AmbiguousGroups = 3
	cfg.Topics = 2
	cfg.MaxPapersPerAuthor = 8
	cfg.StarBoostMin = 4
	data, err := synth.GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := data.Graph
	s := data.Schema
	paths := metapath.DBLPPaperPaths(s)

	authors := g.ObjectsOfType(s.Author)
	papers := g.ObjectsOfType(s.Paper)
	venues := g.ObjectsOfType(s.Venue)
	terms := g.ObjectsOfType(s.Term)

	d := g.Append()
	p1 := d.MustAppend(s.Paper, "soundness paper 1")
	d.MustPatch(s.Write, authors[0], p1)
	d.MustPatch(s.Publish, venues[0], p1)
	d.MustPatch(s.Contain, p1, terms[0])
	a2 := d.MustAppend(s.Author, "Soundness Author")
	v2 := d.MustAppend(s.Venue, "Soundness Venue")
	p2 := d.MustAppend(s.Paper, "soundness paper 2")
	d.MustPatch(s.Write, a2, p2)
	d.MustPatch(s.Publish, v2, p2)
	d.MustPatch(s.Write, authors[1], papers[len(papers)-1])

	g2, ms := d.Merge()
	affected := affectedSources(g2, paths, ms.Touched)

	w1 := metapath.NewWalker(g, 0)
	w2 := metapath.NewWalker(g2, 0)
	var kept, dropped int
	for _, a := range authors {
		if affected[a] {
			dropped++
			continue
		}
		kept++
		for _, p := range paths {
			d1, err := w1.Walk(context.Background(), a, p, 0)
			if err != nil {
				t.Fatalf("Walk(%s, %s) on base: %v", g.Name(a), p.String(), err)
			}
			d2, err := w2.Walk(context.Background(), a, p, 0)
			if err != nil {
				t.Fatalf("Walk(%s, %s) on merged: %v", g.Name(a), p.String(), err)
			}
			i1, x1 := d1.Raw()
			i2, x2 := d2.Raw()
			if len(i1) != len(i2) {
				t.Fatalf("unaffected entity %s: %s walk changed size %d -> %d",
					g.Name(a), p.String(), len(i1), len(i2))
			}
			for k := range i1 {
				if i1[k] != i2[k] || math.Float64bits(x1[k]) != math.Float64bits(x2[k]) {
					t.Fatalf("unaffected entity %s: %s walk differs at entry %d",
						g.Name(a), p.String(), k)
				}
			}
		}
	}
	if dropped == 0 {
		t.Fatal("delta invalidated no entity; the fixture should touch at least one community")
	}
	if kept == 0 {
		t.Fatal("delta invalidated every entity; typed keying lost all precision")
	}
	t.Logf("kept %d of %d entities (%d invalidated)", kept, len(authors), dropped)
}
