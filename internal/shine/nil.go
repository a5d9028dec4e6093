package shine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"shine/internal/corpus"
	"shine/internal/hin"
)

// NIL prediction — the paper's stated future work ("the method for
// predicting entity mentions that do not have their corresponding
// entity records in the heterogeneous information network is left for
// future research", Section 2.2) — implemented inside the generative
// model rather than as an ad-hoc threshold:
//
// A NIL pseudo-candidate is added to every candidate set. Its prior
// is a configurable mass π: the probability that the mention's true
// referent has no record, given its surface form. The remaining 1−π
// is distributed over the real candidates in proportion to their
// popularity (renormalised over the candidate set — the global P(e)
// sums to 1 over *all* entities, so using it raw would let any
// non-trivial π swamp the handful of candidates). The NIL object
// model is the generic model alone — a document about an entity the
// network does not know looks, to the network, like generic domain
// text:
//
//	P(m, d, NIL)  = η · π · Π_v Pg(v)^count(v)
//	P(m, d, e)    = η · (1−π) · P(e)/Σ_{e'∈cand}P(e') · P(d|e)
//
// Renormalising the candidate priors leaves candidate-vs-candidate
// posteriors identical to Link's; only the NIL-vs-candidates balance
// is governed by π. The mention maps to NIL exactly when no
// candidate's neighbourhood explains the document better than the
// domain background does.

// NILPrior is the default prior mass reserved for the NIL outcome.
const NILPrior = 0.05

// LinkNIL resolves the document's mention like Link, but may return
// hin.NoObject (NIL) when the document is better explained by the
// generic domain model than by any candidate. nilPrior ∈ (0, 1) is
// the prior probability that the mention's entity is absent from the
// network; higher values predict NIL more eagerly.
//
// Unlike Link, a mention whose surface form matches no entity at all
// is not an error here: it is a NIL prediction with posterior 1.
func (m *Model) LinkNIL(doc *corpus.Document, nilPrior float64) (Result, error) {
	return m.LinkNILContext(context.Background(), doc, nilPrior)
}

// LinkNILContext is LinkNIL under a request context, with the same
// cancellation points as LinkContext: between candidates and between
// walk hops.
func (m *Model) LinkNILContext(ctx context.Context, doc *corpus.Document, nilPrior float64) (Result, error) {
	mm := m.metrics
	var start time.Time
	if mm != nil {
		start = time.Now()
	}
	res, err := m.linkNIL(ctx, doc, nilPrior)
	mm.observeLink(start, res, err)
	return res, err
}

func (m *Model) linkNIL(ctx context.Context, doc *corpus.Document, nilPrior float64) (Result, error) {
	// The NaN test must be explicit: NaN <= 0 and NaN >= 1 are both
	// false, so a NaN prior would pass the range check and then
	// propagate through log(1−π) into every candidate's posterior.
	// ±Inf is caught by the range comparisons.
	if math.IsNaN(nilPrior) || nilPrior <= 0 || nilPrior >= 1 {
		return Result{}, fmt.Errorf("shine: NIL prior %v outside (0, 1)", nilPrior)
	}
	cands, _, logs, err := m.score(ctx, doc)
	if errors.Is(err, ErrNoCandidates) {
		return Result{
			Entity: hin.NoObject,
			Candidates: []CandidateScore{{
				Entity:    hin.NoObject,
				LogJoint:  m.nilLogJoint(doc, nilPrior),
				Posterior: 1,
			}},
		}, nil
	}
	if err != nil {
		return Result{}, err
	}

	candMass := 0.0
	for _, e := range cands {
		candMass += m.popularity[e]
	}
	if candMass < m.cfg.ProbFloor {
		candMass = m.cfg.ProbFloor
	}
	// (1−π) / Σ P(e') rescales the candidate priors so they compete
	// with π on equal footing.
	scale := math.Log(1-nilPrior) - math.Log(candMass)
	for i := range logs {
		logs[i] += scale
	}
	logs = append(logs, m.nilLogJoint(doc, nilPrior))
	return rank(append(cands, hin.NoObject), logs), nil
}

// nilLogJoint scores the NIL pseudo-candidate: prior mass times the
// generic object model over the document.
func (m *Model) nilLogJoint(doc *corpus.Document, nilPrior float64) float64 {
	score := math.Log(m.cfg.Eta) + math.Log(nilPrior)
	for _, oc := range doc.Objects {
		pg := m.generic.Prob(oc.Object)
		score += float64(oc.Count) * math.Log(math.Max(pg, m.cfg.ProbFloor))
	}
	return score
}
