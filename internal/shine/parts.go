package shine

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"shine/internal/corpus"
	"shine/internal/hin"
	"shine/internal/metapath"
	"shine/internal/sparse"
	"shine/internal/surftrie"
)

// Parts is the flat decomposition of a trained Model: everything a
// binary snapshot persists, so that FromParts can reassemble a serving
// model without re-running PageRank, re-estimating the generic object
// model or re-walking meta-paths, plus the surface-form trie, which
// snapshots rebuild from the graph instead of persisting. The walker
// cache is deliberately absent — a cheap rebuild from the graph.
type Parts struct {
	Graph      *hin.Graph
	EntityType hin.TypeID
	Paths      []metapath.Path
	Config     Config
	// Weights is the learned meta-path weight vector exactly as the
	// model serves it (already normalised); FromParts installs it
	// verbatim, never through SetWeights' renormalisation, so restored
	// Link scores are bit-identical.
	Weights []float64
	// Popularity is P(e) densely indexed by position in
	// Graph.ObjectsOfType(EntityType) — the offline centrality result
	// (Formula 6 under the default "pagerank" backend), restored
	// instead of recomputed.
	Popularity []float64
	// PRSeconds is the wall time of the centrality run. Snapshots do
	// not persist it, because it would make two builds of the same
	// input differ; a restored model ran no centrality and reports 0.
	PRSeconds    float64
	PRIterations int
	// Centrality names the pagerank.Centrality backend that produced
	// Popularity. FromParts refuses a Parts whose Centrality disagrees
	// with Config.CentralityName(), so an artifact's popularity section
	// is never silently served under a different backend's name. Empty
	// means "recorded before the field existed", which is accepted and
	// treated as the then-only backend, "pagerank".
	Centrality string
	// Generic is the corpus-wide object model Pg.
	Generic sparse.Vector
	// Mixtures is the frozen per-candidate mixture index, sorted by
	// ascending entity ID. May be empty: the index refills lazily.
	Mixtures []MixtureEntry
	// Trie is the frozen surface-form candidate index, built from
	// Graph by surftrie.Build. May be nil (a model with a custom
	// candidate source), in which case FromParts builds it.
	Trie *surftrie.Trie
}

// MixtureEntry is one frozen candidate mixture Pe(v) = Σ_p w_p·Pe(v|p).
type MixtureEntry struct {
	Entity  hin.ObjectID
	Mixture sparse.Dist
}

// Parts decomposes the model for snapshotting. The returned slices
// and graph are shared with the live model and must not be modified;
// weight vector and mixture set are taken under one version so they
// are mutually consistent even if Learn runs concurrently.
func (m *Model) Parts() Parts {
	w, ver := m.snapshotWeightsVer()
	trie, _ := m.cands.(*surftrie.Trie)
	ents := m.graph.ObjectsOfType(m.entityType)
	pop := make([]float64, len(ents))
	for i, e := range ents {
		pop[i] = m.popularity[e]
	}
	return Parts{
		Graph:        m.graph,
		EntityType:   m.entityType,
		Paths:        m.paths,
		Config:       m.cfg,
		Weights:      w,
		Popularity:   pop,
		PRSeconds:    m.prSeconds,
		PRIterations: m.prIterations,
		Centrality:   m.cfg.CentralityName(),
		Generic:      m.generic.Vector(),
		Mixtures:     m.mixtures.snapshotEntries(ver),
		Trie:         trie,
	}
}

// FromParts reassembles a serving model from its flat decomposition.
// Unlike New, nothing expensive runs: popularity, the generic model
// and any frozen mixtures are adopted after validation, and only the
// O(entities) name index (unless p.Trie carries it) and the empty
// walker cache are built. The weight vector is installed verbatim —
// not renormalised — so a restored model's Link output is
// bit-identical to the model that was decomposed.
func FromParts(p Parts) (*Model, error) {
	if p.Graph == nil {
		return nil, errors.New("shine: FromParts: nil graph")
	}
	cfg := p.Config
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if p.Centrality != "" && p.Centrality != cfg.CentralityName() {
		return nil, fmt.Errorf("shine: FromParts: popularity was computed by centrality backend %q but the config selects %q; rebuild the artifact instead of mixing backends",
			p.Centrality, cfg.CentralityName())
	}
	if len(p.Paths) == 0 {
		return nil, errors.New("shine: FromParts: empty meta-path set")
	}
	for _, path := range p.Paths {
		if path.IsEmpty() {
			return nil, errors.New("shine: FromParts: empty meta-path in path set")
		}
		if st := path.StartType(p.Graph.Schema()); st != p.EntityType {
			return nil, fmt.Errorf("shine: FromParts: path %s starts at type %d, entity type is %d",
				path, st, p.EntityType)
		}
	}
	if len(p.Weights) != len(p.Paths) {
		return nil, fmt.Errorf("shine: FromParts: %d weights for %d paths", len(p.Weights), len(p.Paths))
	}
	sum := 0.0
	for _, w := range p.Weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("shine: FromParts: invalid weight %v", w)
		}
		sum += w
	}
	if sum == 0 {
		return nil, errors.New("shine: FromParts: all-zero weight vector")
	}

	ents := p.Graph.ObjectsOfType(p.EntityType)
	if len(p.Popularity) != len(ents) {
		return nil, fmt.Errorf("shine: FromParts: %d popularity scores for %d entities",
			len(p.Popularity), len(ents))
	}
	pop := make(map[hin.ObjectID]float64, len(ents))
	for i, e := range ents {
		s := p.Popularity[i]
		if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("shine: FromParts: invalid popularity %v for entity %d", s, e)
		}
		pop[e] = s
	}

	gen, err := corpus.GenericFromVector(p.Generic)
	if err != nil {
		return nil, fmt.Errorf("shine: FromParts: %w", err)
	}
	trie := p.Trie
	if trie == nil {
		trie, err = surftrie.Build(p.Graph, p.EntityType)
		if err != nil {
			return nil, fmt.Errorf("shine: FromParts: indexing entity names: %w", err)
		}
	} else if err := trie.CheckGraph(p.Graph, p.EntityType); err != nil {
		return nil, fmt.Errorf("shine: FromParts: %w", err)
	}

	for i, en := range p.Mixtures {
		if en.Entity < 0 || int(en.Entity) >= p.Graph.NumObjects() {
			return nil, fmt.Errorf("shine: FromParts: mixture %d for out-of-range entity %d", i, en.Entity)
		}
		if p.Graph.TypeOf(en.Entity) != p.EntityType {
			return nil, fmt.Errorf("shine: FromParts: mixture %d for non-entity object %d", i, en.Entity)
		}
		if i > 0 && p.Mixtures[i-1].Entity >= en.Entity {
			return nil, fmt.Errorf("shine: FromParts: mixture entities not strictly ascending at %d", i)
		}
	}

	m := &Model{
		graph:        p.Graph,
		entityType:   p.EntityType,
		paths:        append([]metapath.Path(nil), p.Paths...),
		cfg:          cfg,
		weights:      append([]float64(nil), p.Weights...),
		wver:         1,
		popularity:   pop,
		prSeconds:    p.PRSeconds,
		prIterations: p.PRIterations,
		cands:        trie,
		walker:       metapath.NewWalker(p.Graph, cfg.WalkCacheSize),
		generic:      gen,
	}
	m.mixtures.installEntries(p.Mixtures, 1)
	return m, nil
}
