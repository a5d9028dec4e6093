package shine

import (
	"cmp"
	"context"
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

// ExplainContext is Explain under a request context. It scores the
// mention exactly as LinkContext does, from the frozen mixture index,
// with the same cancellation points: between candidates and between
// walk hops.
func (m *Model) ExplainContext(ctx context.Context, doc *corpus.Document) (Explanation, error) {
	cands, mx, logs, err := m.score(ctx, doc)
	if err != nil {
		return Explanation{}, err
	}
	// Link's ranking picks the winner and the runner-up.
	res := rank(cands, logs)
	ex := Explanation{Entity: res.Entity, RunnerUp: hin.NoObject}
	if len(cands) == 1 {
		return ex, nil
	}
	ex.RunnerUp = res.Candidates[1].Entity
	ex.Margin = res.Candidates[0].LogJoint - res.Candidates[1].LogJoint
	ex.PopularityLogOdds = math.Log(math.Max(m.popularity[ex.Entity], m.cfg.ProbFloor)) -
		math.Log(math.Max(m.popularity[ex.RunnerUp], m.cfg.ProbFloor))

	win, run := mx.pe[slices.Index(cands, ex.Entity)], mx.pe[slices.Index(cands, ex.RunnerUp)]
	g := m.graph
	theta := m.cfg.Theta
	for oi, oc := range doc.Objects {
		// Pv as logJointFrozen scores it, from the candidate's
		// mixture row.
		pv := func(row []float64) float64 {
			return math.Max(theta*row[oi]+(1-theta)*mx.generic[oi], m.cfg.ProbFloor)
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
