package shine

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"shine/internal/corpus"
	"shine/internal/hin"
)

// Explanation breaks a linking decision down into the evidence that
// produced it: the log-odds between the winning candidate and the
// runner-up, attributed to the popularity prior and to each document
// object. Positive contributions favour the winner. The decomposition
// is exact:
//
//	PopularityLogOdds + Σ Objects[i].LogOdds
//	  = ln P(m,d,winner) − ln P(m,d,runnerUp)
type Explanation struct {
	// Entity is the winning candidate; RunnerUp the second-best (or
	// hin.NoObject when the mention had a single candidate).
	Entity, RunnerUp hin.ObjectID
	// Margin is the total log-odds between winner and runner-up.
	Margin float64
	// PopularityLogOdds is the share contributed by the entity
	// popularity model P(e).
	PopularityLogOdds float64
	// Objects lists each document object's contribution, sorted by
	// descending absolute log-odds (the most decisive evidence
	// first).
	Objects []ObjectContribution
}

// ObjectContribution is one document object's share of the log-odds.
type ObjectContribution struct {
	Object hin.ObjectID
	// Name and Type describe the object.
	Name, Type string
	// Count is the object's occurrence count in the document.
	Count int
	// LogOdds is count · (ln P(v|winner) − ln P(v|runnerUp)).
	LogOdds float64
}

// Explain links the document and decomposes the decision. It is the
// production answer to "why did this mention link there?".
func (m *Model) Explain(doc *corpus.Document) (Explanation, error) {
	return m.ExplainContext(context.Background(), doc)
}

// ExplainContext is Explain under a request context, with the same
// cancellation points as LinkContext: between candidates and between
// walk hops.
func (m *Model) ExplainContext(ctx context.Context, doc *corpus.Document) (Explanation, error) {
	cands := m.lookupCandidates(doc.Mention)
	if len(cands) == 0 {
		return Explanation{}, fmt.Errorf("%w: %q", ErrNoCandidates, doc.Mention)
	}
	md, err := m.prepareMention(ctx, doc, cands)
	if err != nil {
		return Explanation{}, err
	}
	weights := m.snapshotWeights()
	logs := make([]float64, len(cands))
	for i := range md.cands {
		logs[i] = m.logJoint(md, i, weights)
	}
	// Identify winner and runner-up (Link's ordering: posterior desc,
	// then ascending ID — identical to log-joint ordering).
	win, run := 0, -1
	for i := 1; i < len(cands); i++ {
		if logs[i] > logs[win] {
			win = i
		}
	}
	for i := range cands {
		if i == win {
			continue
		}
		if run < 0 || logs[i] > logs[run] {
			run = i
		}
	}

	ex := Explanation{Entity: cands[win]}
	if run < 0 {
		ex.RunnerUp = hin.NoObject
		return ex, nil
	}
	ex.RunnerUp = cands[run]
	ex.Margin = logs[win] - logs[run]
	ex.PopularityLogOdds = math.Log(math.Max(m.popularity[cands[win]], m.cfg.ProbFloor)) -
		math.Log(math.Max(m.popularity[cands[run]], m.cfg.ProbFloor))

	g := m.graph
	theta := m.cfg.Theta
	for oi, oc := range doc.Objects {
		pv := func(ci int) float64 {
			pe := 0.0
			for pi := range weights {
				pe += weights[pi] * md.cands[ci].pathProb[pi][oi]
			}
			return math.Max(theta*pe+(1-theta)*md.generic[oi], m.cfg.ProbFloor)
		}
		ex.Objects = append(ex.Objects, ObjectContribution{
			Object:  oc.Object,
			Name:    g.Name(oc.Object),
			Type:    g.Schema().Type(g.TypeOf(oc.Object)).Abbrev,
			Count:   oc.Count,
			LogOdds: float64(oc.Count) * (math.Log(pv(win)) - math.Log(pv(run))),
		})
	}
	slices.SortFunc(ex.Objects, func(oa, ob ObjectContribution) int {
		if math.Abs(oa.LogOdds) != math.Abs(ob.LogOdds) {
			return cmp.Compare(math.Abs(ob.LogOdds), math.Abs(oa.LogOdds))
		}
		return cmp.Compare(oa.Object, ob.Object)
	})
	return ex, nil
}
