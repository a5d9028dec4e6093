package shine

import (
	"slices"
	"testing"

	"shine/internal/hin"
	"shine/internal/namematch"
	"shine/internal/obs"
	"shine/internal/surftrie"
)

func TestSetFuzzyDistanceValidation(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, nil)
	for _, dist := range []int{0, 1, surftrie.MaxDistance} {
		if err := m.SetFuzzyDistance(dist); err != nil {
			t.Errorf("SetFuzzyDistance(%d): %v", dist, err)
		}
	}
	for _, dist := range []int{-1, surftrie.MaxDistance + 1, 99} {
		if err := m.SetFuzzyDistance(dist); err == nil {
			t.Errorf("SetFuzzyDistance(%d) accepted", dist)
		}
	}
}

// TestLookupCandidatesFuzzyFallback: the serving path falls back to
// edit-distance retrieval only when the exact rules find nothing AND
// the knob is on; exact hits never take the fuzzy path.
func TestLookupCandidatesFuzzyFallback(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, nil)
	// "Wei Wing" is one edit from "Wei Wang": invisible to the strict
	// rules, reachable at distance 1.
	const noisy = "Wei Wing"
	if got := m.lookupCandidates(noisy); len(got) != 0 {
		t.Fatalf("fuzzy off, lookup(%q) = %v, want none", noisy, got)
	}
	if err := m.SetFuzzyDistance(1); err != nil {
		t.Fatal(err)
	}
	got := m.lookupCandidates(noisy)
	want := []hin.ObjectID{f.ids["w1"], f.ids["w2"]}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("fuzzy on, lookup(%q) = %v, want %v", noisy, got, want)
	}
	// An exact hit must return the strict candidate set untouched.
	if got := m.lookupCandidates("Wei Wang"); !slices.Equal(got, m.cands.Candidates("Wei Wang")) {
		t.Errorf("exact hit diverged from strict candidates: %v", got)
	}
}

// TestSetCandidateSourceOracle swaps the trie for the brute-force
// namematch.Index and verifies the model serves identically — the
// testing seam the equivalence harness relies on.
func TestSetCandidateSourceOracle(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, nil)
	trieCands := m.lookupCandidates("Wei Wang")
	trieLoose := m.LooseCandidates("W. Wang")
	if _, ok := m.CandidateSource().(*surftrie.Trie); !ok {
		t.Fatal("freshly built model has no trie")
	}

	idx, err := namematch.BuildIndex(f.g, f.d.Author)
	if err != nil {
		t.Fatal(err)
	}
	m.SetCandidateSource(idx)
	if _, ok := m.CandidateSource().(*surftrie.Trie); ok {
		t.Error("the model still serves its trie after installing a custom source")
	}
	if got := m.lookupCandidates("Wei Wang"); !slices.Equal(got, trieCands) {
		t.Errorf("oracle source diverges on exact lookup: %v vs %v", got, trieCands)
	}
	if got := m.LooseCandidates("W. Wang"); !slices.Equal(got, trieLoose) {
		t.Errorf("oracle source diverges on loose lookup: %v vs %v", got, trieLoose)
	}
	// The index cannot do fuzzy: FuzzyCandidates degrades to nil and
	// the fallback quietly stays strict.
	if got := m.FuzzyCandidates("Wei Wing", 2); got != nil {
		t.Errorf("FuzzyCandidates on a non-fuzzy source = %v", got)
	}
	if err := m.SetFuzzyDistance(2); err != nil {
		t.Fatal(err)
	}
	if got := m.lookupCandidates("Wei Wing"); len(got) != 0 {
		t.Errorf("non-fuzzy source still produced fuzzy results: %v", got)
	}

	// Linking still works end to end against the oracle source.
	if _, err := m.Link(f.docA); err != nil {
		t.Errorf("Link with oracle source: %v", err)
	}
}

// TestCandidateMetrics: every serving-path lookup is counted and
// timed, and fuzzy fallbacks are counted separately.
func TestCandidateMetrics(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, nil)
	reg := obs.NewRegistry()
	m.SetMetrics(reg)
	if err := m.SetFuzzyDistance(2); err != nil {
		t.Fatal(err)
	}

	if _, err := m.Link(f.docA); err != nil { // exact hit
		t.Fatal(err)
	}
	lookupsAfterExact := reg.Counter(MetricCandidatesLookups).Value()
	if lookupsAfterExact == 0 {
		t.Fatal("exact link recorded no candidate lookups")
	}
	if got := reg.Counter(MetricCandidatesFuzzy).Value(); got != 0 {
		t.Errorf("fuzzy counter = %d after an exact hit, want 0", got)
	}

	m.lookupCandidates("Wei Wing") // falls back
	if got := reg.Counter(MetricCandidatesLookups).Value(); got != lookupsAfterExact+1 {
		t.Errorf("lookups = %d, want %d", got, lookupsAfterExact+1)
	}
	if got := reg.Counter(MetricCandidatesFuzzy).Value(); got != 1 {
		t.Errorf("fuzzy counter = %d, want 1", got)
	}
	hist := reg.Histogram(MetricCandidatesSeconds, nil)
	if got := hist.Count(); got != lookupsAfterExact+1 {
		t.Errorf("latency histogram count = %d, want %d", got, lookupsAfterExact+1)
	}
}
