package shine

import (
	"context"
	"testing"

	"shine/internal/hin"
)

// TestFrozenLinkMatchesLogJoint: the frozen serving path produces
// bit-for-bit the scores of the training-path formula (prepareMention
// per-path probabilities folded by logJoint). This is the end-to-end
// determinism contract of the mixture index.
func TestFrozenLinkMatchesLogJoint(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, nil)
	w := make([]float64, len(m.Paths()))
	for i := range w {
		w[i] = float64(i + 1) // non-uniform, renormalised by SetWeights
	}
	if err := m.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	for _, doc := range f.corpus.Docs {
		res, err := m.Link(doc)
		if err != nil {
			t.Fatalf("Link(%s): %v", doc.ID, err)
		}
		cands := m.Candidates(doc.Mention)
		md, err := m.prepareMention(context.Background(), doc, cands)
		if err != nil {
			t.Fatal(err)
		}
		w := m.Weights()
		want := make(map[hin.ObjectID]float64, len(cands))
		for i, e := range cands {
			want[e] = m.logJoint(md, i, w)
		}
		for _, cs := range res.Candidates {
			if got := cs.LogJoint; got != want[cs.Entity] {
				t.Errorf("doc %s entity %d: frozen LogJoint = %v, map path %v (bit-for-bit)",
					doc.ID, cs.Entity, got, want[cs.Entity])
			}
		}
	}
}

// TestMixtureInvalidationOnSetWeights: weight installs flush the
// frozen index, and the rebuilt entries serve the new weights.
func TestMixtureInvalidationOnSetWeights(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, nil)
	if _, err := m.Link(f.docA); err != nil {
		t.Fatal(err)
	}
	st := m.MixtureStats()
	if st.Entries == 0 || st.Builds == 0 {
		t.Fatalf("no mixtures built by Link: %+v", st)
	}
	before := st.Invalidations

	n := len(m.Paths())
	w := make([]float64, n)
	w[0] = 1 // all mass on the first path: scores must change
	if err := m.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	st = m.MixtureStats()
	if st.Entries != 0 {
		t.Errorf("%d stale mixtures survive SetWeights", st.Entries)
	}
	if st.Invalidations != before+1 {
		t.Errorf("invalidations %d, want %d", st.Invalidations, before+1)
	}

	// Rebuilt entries must reflect the new weights bit-for-bit.
	res, err := m.Link(f.docA)
	if err != nil {
		t.Fatal(err)
	}
	cands := m.Candidates(f.docA.Mention)
	md, err := m.prepareMention(context.Background(), f.docA, cands)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range cands {
		want := m.logJoint(md, i, m.Weights())
		for _, cs := range res.Candidates {
			if cs.Entity == e && cs.LogJoint != want {
				t.Errorf("entity %d after SetWeights: LogJoint = %v, want %v", e, cs.LogJoint, want)
			}
		}
	}
}

// TestEntitySpecificProbMemoised: probing N objects of one entity
// builds its mixture once, and every probe matches the definition
// Pe(v) = Σ_p w_p·Pe(v|p) computed straight from the walker.
func TestEntitySpecificProbMemoised(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, nil)
	e := f.ids["w1"]
	probes := []hin.ObjectID{f.ids["sigmod"], f.ids["data"], f.ids["mine"], f.ids["nips"], f.ids["1999"]}
	want, err := m.walker.WalkMixtureDist(e, m.paths, m.Weights(), m.cfg.WalkPruning)
	if err != nil {
		t.Fatal(err)
	}

	before := m.MixtureStats().Builds
	for _, v := range probes {
		p, err := m.EntitySpecificProb(e, v)
		if err != nil {
			t.Fatalf("EntitySpecificProb(%d): %v", v, err)
		}
		if p != want.Get(int32(v)) {
			t.Errorf("EntitySpecificProb(%d) = %v, want %v", v, p, want.Get(int32(v)))
		}
	}
	if got := m.MixtureStats().Builds - before; got != 1 {
		t.Errorf("%d probes built the mixture %d times, want 1", len(probes), got)
	}
}

// TestPrecomputeMixtures: the eager build covers every entity of the
// model's type, and serving afterwards is all cache hits.
func TestPrecomputeMixtures(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, nil)
	if err := m.PrecomputeMixtures(); err != nil {
		t.Fatalf("PrecomputeMixtures: %v", err)
	}
	st := m.MixtureStats()
	if want := len(f.g.ObjectsOfType(f.d.Author)); st.Entries != want {
		t.Errorf("precompute built %d mixtures, want %d", st.Entries, want)
	}
	missesBefore := st.Misses
	if _, err := m.Link(f.docA); err != nil {
		t.Fatal(err)
	}
	if st := m.MixtureStats(); st.Misses != missesBefore {
		t.Errorf("Link after precompute missed the index (%d -> %d misses)", missesBefore, st.Misses)
	}
}

// TestCandidatesCallerOwned: mutating a returned candidate slice must
// not corrupt later lookups (slice-ownership audit).
func TestCandidatesCallerOwned(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, nil)
	first := m.Candidates("Wei Wang")
	if len(first) == 0 {
		t.Fatal("no candidates for Wei Wang")
	}
	want := append([]hin.ObjectID(nil), first...)
	for i := range first {
		first[i] = hin.ObjectID(99999) // attack the returned slice
	}
	second := m.Candidates("Wei Wang")
	if len(second) != len(want) {
		t.Fatalf("candidate count changed: %d vs %d", len(second), len(want))
	}
	for i := range second {
		if second[i] != want[i] {
			t.Errorf("candidate[%d] = %d after caller mutation, want %d", i, second[i], want[i])
		}
	}
}

// TestLinkSteadyStateAllocs pins the allocation count of a cached-hit
// Link call. The frozen path allocates only per-request state (result
// slices, the mention's row buffer) — if this regresses, the serving
// path has picked up per-request walk or map work again.
func TestLinkSteadyStateAllocs(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, nil)
	if _, err := m.Link(f.docA); err != nil { // warm the mixture index
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := m.Link(f.docA); err != nil {
			t.Fatal(err)
		}
	})
	// Pre-PR, a single Link ran ~390 allocations (walk mixing, map
	// scatter); the frozen path runs ~20. Leave modest headroom so the
	// pin flags regressions, not noise.
	if avg > 40 {
		t.Errorf("cached-hit Link allocates %.1f objects/op, want <= 40", avg)
	}
}
