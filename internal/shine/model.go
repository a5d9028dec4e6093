package shine

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"shine/internal/corpus"
	"shine/internal/hin"
	"shine/internal/metapath"
	"shine/internal/pagerank"
	"shine/internal/surftrie"
)

// ErrNoCandidates is returned by Link when a mention's surface form
// matches no entity in the network. The paper assumes the network
// contains all mapping entities, so this signals a dataset problem
// rather than a NIL prediction.
var ErrNoCandidates = errors.New("shine: mention has no candidate entities")

// Model is a SHINE entity linking model over a fixed network, entity
// type and meta-path set. Construct with New, optionally learn
// meta-path weights with Learn, then Link documents. A Model is safe
// for concurrent Link calls, and Learn or SetWeights may run while
// readers are active: each read snapshots the weight vector, so a
// concurrent reader sees either the old or the new weights, never a
// partial write.
type Model struct {
	graph      *hin.Graph
	entityType hin.TypeID
	paths      []metapath.Path
	cfg        Config

	// wmu guards weights and wver: Link-path readers snapshot under
	// RLock while Learn/SetWeights install a full vector under Lock.
	wmu     sync.RWMutex
	weights []float64
	// wver counts weight installs. Frozen mixture-index entries are
	// tagged with the version they were built at, so a concurrent
	// install can never leave stale mixtures serving new weights.
	wver uint64

	// mixtures is the frozen serving index: per candidate entity, the
	// full meta-path mixture Σ_p w_p·Pe(v|p) as an immutable CSR
	// distribution. Built lazily (or via PrecomputeMixtures) and
	// invalidated by installWeights.
	mixtures mixtureIndex

	popularity map[hin.ObjectID]float64
	// prScores is the raw whole-network centrality vector behind
	// popularity (nil under PopularityUniform), produced by the
	// cfg.Centrality backend. WithDelta passes it to the next
	// revision's run as pagerank.Options.Warm, so an incremental
	// update re-converges in fewer sweeps than a cold run. Snapshots
	// do not store it: a restored model's first update runs cold.
	prScores []float64
	// prSeconds/prIterations record the most recent centrality run
	// (zero under PopularityUniform); published as gauges by
	// SetMetrics.
	prSeconds    float64
	prIterations int
	// cands generates candidate entities; by default a
	// *surftrie.Trie, but replaceable via SetCandidateSource.
	cands   CandidateSource
	walker  *metapath.Walker
	generic *corpus.GenericModel
	// metrics, when non-nil, instruments link and EM hot paths; see
	// SetMetrics.
	metrics *modelMetrics

	// fuzzyDistance is the serving-path fuzzy fallback distance; see
	// SetFuzzyDistance.
	fuzzyDistance int
}

// New builds a model: it computes the entity popularity offline (the
// paper computes PageRank scores offline for the whole network),
// indexes entity names for candidate generation, and estimates the
// generic object model from the document collection. Weights start
// uniform over the path set; call Learn to fit them, or SetWeights to
// impose them.
func New(g *hin.Graph, entityType hin.TypeID, paths []metapath.Path, docs *corpus.Corpus, cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, errors.New("shine: empty meta-path set")
	}
	for _, p := range paths {
		if p.IsEmpty() {
			return nil, errors.New("shine: empty meta-path in path set")
		}
		if st := p.StartType(g.Schema()); st != entityType {
			return nil, fmt.Errorf("shine: path %s starts at type %s, entity type is %s",
				p, g.Schema().Type(st).Abbrev, g.Schema().Type(entityType).Abbrev)
		}
	}

	pop, prScores, prSeconds, prIters, err := computePopularity(g, entityType, cfg, nil)
	if err != nil {
		return nil, err
	}

	trie, err := surftrie.Build(g, entityType)
	if err != nil {
		return nil, fmt.Errorf("shine: indexing entity names: %w", err)
	}
	gen, err := corpus.EstimateGeneric(docs)
	if err != nil {
		return nil, fmt.Errorf("shine: estimating generic object model: %w", err)
	}

	m := &Model{
		graph:        g,
		entityType:   entityType,
		paths:        append([]metapath.Path(nil), paths...),
		weights:      make([]float64, len(paths)),
		cfg:          cfg,
		popularity:   pop,
		prScores:     prScores,
		prSeconds:    prSeconds,
		prIterations: prIters,
		cands:        trie,
		walker:       metapath.NewWalker(g, cfg.WalkCacheSize),
		generic:      gen,
	}
	for i := range m.weights {
		m.weights[i] = 1 / float64(len(paths))
	}
	return m, nil
}

// computePopularity runs the configured popularity model over g:
// uniform (Formula 5), or the configured centrality backend normalised
// over the entity set (Formulas 6–7 with "pagerank", the paper's
// choice and the default; see pagerank.NewCentrality for "degree",
// "hits" and "ppr"). warm, when non-nil, is the previous revision's
// raw score vector; it becomes pagerank.Options.Warm, which the
// backends that iterate from a start vector read. The centrality
// kernel inherits cfg.Workers when cfg.PageRank.Workers is unset, so
// `-workers` bounds the whole offline pipeline, not just EM; any
// worker count produces bit-identical scores. Returns the popularity
// map, the raw score vector (nil in uniform mode), plus the centrality
// wall-clock seconds and iteration count (both zero in uniform mode)
// for the shine_centrality_* gauges.
func computePopularity(g *hin.Graph, entityType hin.TypeID, cfg Config, warm []float64) (map[hin.ObjectID]float64, []float64, float64, int, error) {
	if cfg.Popularity == PopularityUniform {
		p, err := pagerank.UniformPopularity(g, entityType)
		return p, nil, 0, 0, err
	}
	cen, err := pagerank.NewCentrality(cfg.CentralityName(), entityType)
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("shine: computing popularity: %w", err)
	}
	prOpts := cfg.PageRank
	if prOpts.Workers == 0 {
		prOpts.Workers = cfg.Workers
	}
	prOpts.Warm = warm
	start := time.Now()
	res, err := cen.Compute(g, prOpts)
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("shine: computing popularity: %w", err)
	}
	seconds := time.Since(start).Seconds()
	p, err := pagerank.EntityPopularity(g, res.Scores, entityType)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	return p, res.Scores, seconds, res.Iterations, nil
}

// Graph returns the model's network.
func (m *Model) Graph() *hin.Graph { return m.graph }

// EntityType returns the type of the entities the model links to.
func (m *Model) EntityType() hin.TypeID { return m.entityType }

// Paths returns the meta-path set (shared; do not modify).
func (m *Model) Paths() []metapath.Path { return m.paths }

// Weights returns a copy of the current meta-path weight vector.
func (m *Model) Weights() []float64 {
	w, _ := m.snapshotWeightsVer()
	return w
}

// installWeights replaces the weight vector under the write lock and
// invalidates the frozen mixture index — its entries embed the old
// weights.
func (m *Model) installWeights(w []float64) {
	m.wmu.Lock()
	copy(m.weights, w)
	m.wver++
	ver := m.wver
	m.wmu.Unlock()
	m.mixtures.invalidate(ver)
}

// SetWeights imposes a weight vector. Weights must be non-negative
// and are renormalised to sum to 1.
func (m *Model) SetWeights(w []float64) error {
	if len(w) != len(m.paths) {
		return fmt.Errorf("shine: %d weights for %d paths", len(w), len(m.paths))
	}
	sum := 0.0
	for _, x := range w {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("shine: invalid weight %v", x)
		}
		sum += x
	}
	if sum == 0 {
		return errors.New("shine: all-zero weight vector")
	}
	norm := make([]float64, len(w))
	for i, x := range w {
		norm[i] = x / sum
	}
	m.installWeights(norm)
	return nil
}

// Popularity returns P(e) for an entity (0 for non-entities).
func (m *Model) Popularity(e hin.ObjectID) float64 { return m.popularity[e] }

// Candidates returns the candidate entity set for a mention surface
// form, per the paper's string-comparison rules. The returned slice is
// freshly allocated on every call and owned by the caller; mutating it
// cannot corrupt the index.
func (m *Model) Candidates(mention string) []hin.ObjectID {
	return m.cands.Candidates(mention)
}

// EntitySpecificProb returns the unsmoothed Pe(v) = Σ_p w_p Pe(v|p)
// (Formula 12) — the quantity tabulated per candidate in the paper's
// Figure 3. The entity's full mixture is memoised in the mixture
// index, so probing N objects of one entity walks the meta-paths once.
func (m *Model) EntitySpecificProb(e, v hin.ObjectID) (float64, error) {
	pe, err := m.entityMixture(e)
	if err != nil {
		return 0, err
	}
	return pe.Get(int32(v)), nil
}

// CandidateScore is one candidate's posterior under the model.
type CandidateScore struct {
	Entity hin.ObjectID
	// LogJoint is ln P(m, d, e) = ln η + ln P(e) + ln P(d|e).
	LogJoint float64
	// Posterior is P(e|m, d) over the candidate set (Formula 18).
	Posterior float64
}

// Result is the outcome of linking one mention.
type Result struct {
	// Entity is the argmax candidate.
	Entity hin.ObjectID
	// Candidates holds every candidate's score, sorted by descending
	// posterior (ties broken by ascending entity ID).
	Candidates []CandidateScore
}

// Link resolves the document's mention to its most likely entity
// (Problem 1: argmax_e P(e|m, d)).
func (m *Model) Link(doc *corpus.Document) (Result, error) {
	return m.LinkContext(context.Background(), doc)
}

// LinkContext is Link under a request context. Cancellation is
// checked between candidates and — inside the walker — between
// meta-path hops, so a client that disconnects or times out stops
// paying for the remaining walk work instead of completing it. A
// canceled link returns an error satisfying errors.Is(err, ctx.Err())
// and leaves no partial state behind (unfinished walks and mixtures
// are discarded, not cached).
func (m *Model) LinkContext(ctx context.Context, doc *corpus.Document) (Result, error) {
	mm := m.metrics
	var start time.Time
	if mm != nil {
		start = time.Now()
	}
	res, err := m.link(ctx, doc)
	mm.observeLink(start, res, err)
	return res, err
}

func (m *Model) link(ctx context.Context, doc *corpus.Document) (Result, error) {
	cands, _, logs, err := m.score(ctx, doc)
	if err != nil {
		return Result{Entity: hin.NoObject}, err
	}
	return rank(cands, logs), nil
}

// score is the one scoring path of Link, LinkNIL and Explain: the
// mention's candidates, their frozen mixtures contracted against the
// document, and each candidate's log-joint. A mention with no
// candidates is ErrNoCandidates.
func (m *Model) score(ctx context.Context, doc *corpus.Document) (cands []hin.ObjectID, mx *mentionMixtures, logs []float64, err error) {
	cands = m.lookupCandidates(doc.Mention)
	if len(cands) == 0 {
		return nil, nil, nil, fmt.Errorf("%w: %q", ErrNoCandidates, doc.Mention)
	}
	w, ver := m.snapshotWeightsVer()
	if mx, err = m.prepareMentionMixtures(ctx, doc, cands, w, ver); err != nil {
		return nil, nil, nil, err
	}
	logs = make([]float64, len(cands))
	for i, e := range cands {
		logs[i] = m.logJointFrozen(mx, i, e)
	}
	return cands, mx, logs, nil
}

// rank turns the log-joints of ents into a Result: their softmax
// posteriors, sorted by descending posterior with ties broken by
// ascending entity ID.
func rank(ents []hin.ObjectID, logs []float64) Result {
	post := softmax(logs)
	res := Result{Candidates: make([]CandidateScore, len(ents))}
	for i, e := range ents {
		res.Candidates[i] = CandidateScore{Entity: e, LogJoint: logs[i], Posterior: post[i]}
	}
	slices.SortFunc(res.Candidates, func(ca, cb CandidateScore) int {
		if ca.Posterior != cb.Posterior {
			return cmp.Compare(cb.Posterior, ca.Posterior)
		}
		return cmp.Compare(ca.Entity, cb.Entity)
	})
	res.Entity = res.Candidates[0].Entity
	return res
}

// logJoint computes ln(η·P(e)·P(d|e)) for candidate i of a prepared
// mention under the given weight vector, flooring probabilities at
// cfg.ProbFloor.
func (m *Model) logJoint(md *mentionData, i int, weights []float64) float64 {
	c := &md.cands[i]
	score := math.Log(m.cfg.Eta) + math.Log(math.Max(m.popularity[c.entity], m.cfg.ProbFloor))
	theta := m.cfg.Theta
	for oi := range md.counts {
		pe := 0.0
		for pi := range weights {
			pe += weights[pi] * c.pathProb[pi][oi]
		}
		pv := theta*pe + (1-theta)*md.generic[oi]
		score += md.counts[oi] * math.Log(math.Max(pv, m.cfg.ProbFloor))
	}
	return score
}

// softmax converts log scores into a normalised posterior.
func softmax(logs []float64) []float64 {
	max := math.Inf(-1)
	for _, l := range logs {
		if l > max {
			max = l
		}
	}
	out := make([]float64, len(logs))
	sum := 0.0
	for i, l := range logs {
		out[i] = math.Exp(l - max)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}
