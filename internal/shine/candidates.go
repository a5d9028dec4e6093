package shine

import (
	"fmt"
	"time"

	"shine/internal/hin"
	"shine/internal/surftrie"
)

// CandidateSource generates candidate entities for a mention surface
// form. Both methods return freshly allocated slices in ascending ID
// order with no duplicates. The production implementation is
// surftrie.Trie; namematch.Index is the brute-force reference the
// test harness holds it against.
type CandidateSource interface {
	// Candidates applies the paper's Section 5.1 exact rules.
	Candidates(mention string) []hin.ObjectID
	// LooseCandidates extends Candidates with first-initial matching
	// for citation-style mentions ("W. Wang" finds every "Wei Wang").
	LooseCandidates(mention string) []hin.ObjectID
}

// FuzzyCandidateSource is a CandidateSource that can additionally
// retrieve by bounded edit distance, for noisy OCR-style mentions.
// FuzzyCandidates(m, d) must be a superset of Candidates(m) for every
// d ≥ 0.
type FuzzyCandidateSource interface {
	CandidateSource
	FuzzyCandidates(mention string, dist int) []hin.ObjectID
}

// Statically bind the contract both implementations are tested
// against.
var _ FuzzyCandidateSource = (*surftrie.Trie)(nil)

// CandidateSource returns the model's candidate generator.
func (m *Model) CandidateSource() CandidateSource { return m.cands }

// SetCandidateSource replaces the model's candidate generator —
// primarily a testing seam for running the serving path against the
// brute-force namematch oracle. It must not race with concurrent Link
// calls.
func (m *Model) SetCandidateSource(s CandidateSource) { m.cands = s }

// LooseCandidates returns the first-initial candidate set for a
// mention. The slice is freshly allocated and owned by the caller.
func (m *Model) LooseCandidates(mention string) []hin.ObjectID {
	return m.cands.LooseCandidates(mention)
}

// FuzzyCandidates returns the bounded-edit-distance candidate set for
// a mention, or nil when the model's candidate source cannot do fuzzy
// retrieval.
func (m *Model) FuzzyCandidates(mention string, dist int) []hin.ObjectID {
	fz, ok := m.cands.(FuzzyCandidateSource)
	if !ok {
		return nil
	}
	return fz.FuzzyCandidates(mention, dist)
}

// SetFuzzyDistance sets the serving-path fuzzy fallback distance: a
// mention whose exact candidate set is empty is retried against the
// surface-form trie at this edit distance (at most
// surftrie.MaxDistance), so noisy OCR-style mentions still reach their
// candidate block. 0, the default, disables the fallback. Training is
// unaffected, and artifacts do not carry the distance. Must not race
// with concurrent Link calls.
func (m *Model) SetFuzzyDistance(dist int) error {
	if dist < 0 || dist > surftrie.MaxDistance {
		return fmt.Errorf("shine: fuzzy distance %d outside [0, %d]", dist, surftrie.MaxDistance)
	}
	m.fuzzyDistance = dist
	return nil
}

// FuzzyDistance returns the fuzzy fallback distance SetFuzzyDistance
// set; 0 when the fallback is off.
func (m *Model) FuzzyDistance() int { return m.fuzzyDistance }

// lookupCandidates is the serving-path candidate lookup: the exact
// rules first, then — only when they come up empty, fuzzy fallback is
// enabled, and the source supports it — a bounded-edit-distance
// retrieval. Training (prepareCorpus) deliberately bypasses this and
// stays strict, so EM sees the paper's candidate sets regardless of
// serving knobs.
func (m *Model) lookupCandidates(mention string) []hin.ObjectID {
	mm := m.metrics
	var start time.Time
	if mm != nil {
		start = time.Now()
	}
	out := m.cands.Candidates(mention)
	fuzzy := false
	if len(out) == 0 && m.fuzzyDistance > 0 {
		if fz, ok := m.cands.(FuzzyCandidateSource); ok {
			out = fz.FuzzyCandidates(mention, m.fuzzyDistance)
			fuzzy = true
		}
	}
	mm.observeCandidates(start, fuzzy)
	return out
}
