package shine

import (
	"context"
	"fmt"

	"shine/internal/corpus"
	"shine/internal/hin"
)

// mentionData is the precomputed scoring state for one mention: for
// every candidate entity and every meta-path, the walk probability
// Pe(v|p) restricted to the document's objects. With these matrices
// in memory, one evaluation of the objective or its gradient is a
// pure floating-point loop — this is what makes the EM inner loop
// linear in the number of mentions (Section 4's complexity analysis:
// O(|M| · |Em| · |Vd| · |W|) per iteration).
type mentionData struct {
	doc *corpus.Document
	// counts[oi] is the occurrence count of document object oi.
	counts []float64
	// generic[oi] is Pg(v) for document object oi.
	generic []float64
	// cands holds the per-candidate walk profiles.
	cands []candidateProfile
}

type candidateProfile struct {
	entity hin.ObjectID
	// pathProb[pi][oi] = Pe(object oi | path pi) for this candidate.
	pathProb [][]float64
}

// prepareMention computes the profile matrices for one document and
// candidate set. Cancellation is checked before each candidate and,
// inside the walker, between hops; training passes
// context.Background() so the EM pipeline is unaffected.
func (m *Model) prepareMention(ctx context.Context, doc *corpus.Document, cands []hin.ObjectID) (*mentionData, error) {
	md := &mentionData{
		doc:     doc,
		counts:  make([]float64, len(doc.Objects)),
		generic: make([]float64, len(doc.Objects)),
		cands:   make([]candidateProfile, len(cands)),
	}
	for oi, oc := range doc.Objects {
		md.counts[oi] = float64(oc.Count)
		md.generic[oi] = m.generic.Prob(oc.Object)
	}
	for ci, e := range cands {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		prof := candidateProfile{
			entity:   e,
			pathProb: make([][]float64, len(m.paths)),
		}
		for pi, p := range m.paths {
			dist, err := m.walker.Walk(ctx, e, p, m.cfg.WalkPruning)
			if err != nil {
				return nil, fmt.Errorf("shine: walking %s from entity %d: %w", p, e, err)
			}
			row := make([]float64, len(doc.Objects))
			for oi, oc := range doc.Objects {
				row[oi] = dist.Get(int32(oc.Object))
			}
			prof.pathProb[pi] = row
		}
		md.cands[ci] = prof
	}
	return md, nil
}

// prepareCorpus computes mention data for every document that has at
// least one candidate. Documents with no candidates are skipped (and
// counted); the paper's task setting guarantees none, but synthetic
// or user data may violate it.
//
// Preparation is the cold-cache cost of training — one constrained
// random walk per (candidate, path) pair — so the per-mention work
// fans out across cfg.Workers goroutines. Each mention writes only
// its own pre-assigned slot, so the returned slice is in document
// order regardless of scheduling; on failure the first error in
// document order is reported, matching the serial behaviour.
func (m *Model) prepareCorpus(c *corpus.Corpus) ([]*mentionData, int, error) {
	type prepJob struct {
		doc   *corpus.Document
		cands []hin.ObjectID
	}
	var jobs []prepJob
	skipped := 0
	for _, doc := range c.Docs {
		// Training stays strict — no fuzzy fallback — so EM sees the
		// paper's candidate sets regardless of serving knobs.
		cands := m.cands.Candidates(doc.Mention)
		if len(cands) == 0 {
			skipped++
			continue
		}
		jobs = append(jobs, prepJob{doc, cands})
	}
	if len(jobs) == 0 {
		return nil, skipped, fmt.Errorf("shine: no linkable mentions in corpus of %d documents", c.Len())
	}

	out := make([]*mentionData, len(jobs))
	errs := make([]error, len(jobs))
	parallelFor(len(jobs), m.workers(), func(i int) {
		out[i], errs[i] = m.prepareMention(context.Background(), jobs[i].doc, jobs[i].cands)
	})
	for _, err := range errs {
		if err != nil {
			return nil, skipped, err
		}
	}
	return out, skipped, nil
}
