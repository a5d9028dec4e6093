package shine

import (
	"errors"
	"fmt"
	"time"

	"shine/internal/hin"
	"shine/internal/metapath"
	"shine/internal/surftrie"
)

// UpdateStats reports what an incremental update cost and what it
// managed to keep warm across the generation swap.
type UpdateStats struct {
	// NewObjects/NewEdges are the delta's size after merging (edges
	// counted once per undirected link, as staged).
	NewObjects int
	NewEdges   int
	// TouchedObjects is the number of objects whose adjacency rows the
	// delta changed — the seeds of the invalidation ball.
	TouchedObjects int
	// AffectedObjects counts the objects whose frozen mixture could
	// have changed: the touched objects plus every walk source that
	// reaches one along a typed prefix of a model meta-path. Mixtures
	// outside the set survive the swap warm.
	AffectedObjects int
	// MergeSeconds is the wall-clock of the CSR splice alone.
	MergeSeconds float64
	// PageRankSeconds/PageRankIterations describe the popularity
	// refresh (both zero under PopularityUniform). The pagerank and
	// ppr backends start it from the previous revision's scores; a
	// model restored from a snapshot has none, so its first update
	// runs cold, as hits always does.
	PageRankSeconds    float64
	PageRankIterations int
	// MixturesKept/Dropped count the frozen-mixture entries that
	// survived per-entity invalidation versus the ones inside the
	// ball.
	MixturesKept    int
	MixturesDropped int
	// TrieRebuilt records whether the surface-form index had to be
	// rebuilt (only when the delta added entity-type objects).
	TrieRebuilt bool
}

// WithDelta applies a staged graph delta and returns a new Model over
// the merged graph — the incremental-update path. Where a cold
// rebuild throws every frozen mixture away, WithDelta invalidates per
// entity: a frozen mixture depends only on the adjacency rows a
// meta-path walk from the source entity can read, so after a small
// delta only entities that reach a touched object (an endpoint of a
// new edge, or a new object) along a typed path prefix can have
// changed — see affectedSources. Every other mixture — most of the
// index, for a small delta — moves to the new model as-is, object IDs
// being stable across Delta.Merge. The walk cache starts empty, as
// after FromParts: a surviving entity serves its kept mixture and
// never reads its cached walks again, and an affected entity's walks
// are stale.
//
// Popularity is refreshed over the whole merged graph by
// computePopularity, the function New calls: uniform mode
// renormalises (so posteriors stay bit-identical to a cold rebuild
// when the delta adds no entities), and centrality mode passes the
// previous revision's scores as pagerank.Options.Warm, converging to
// the same tolerance as a cold run in fewer sweeps. The surface-form
// trie is rebuilt only when the delta added entity-type objects;
// weights, meta-paths, config and the generic object model carry over
// untouched.
//
// The receiver is only read — under the same snapshot disciplines the
// Link path uses — so WithDelta is safe to run while the old model
// serves traffic; the caller swaps the returned model in when ready.
// A custom candidate source installed with SetCandidateSource is
// carried over verbatim and must tolerate the appended objects.
func (m *Model) WithDelta(d *hin.Delta) (*Model, UpdateStats, error) {
	var stats UpdateStats
	if d == nil {
		return nil, stats, errors.New("shine: nil delta")
	}
	if d.Base() != m.graph {
		return nil, stats, errors.New("shine: delta was staged against a different graph")
	}

	mergeStart := time.Now()
	g2, ms := d.Merge()
	stats.MergeSeconds = time.Since(mergeStart).Seconds()
	stats.NewObjects = ms.NewObjects
	stats.NewEdges = ms.NewEdges
	stats.TouchedObjects = len(ms.Touched)

	// Invalidation keying: a walk over path r1..rL from source e reads
	// exactly the r_{j+1}-out-rows of the objects at position j of the
	// path, j = 0..L−1, so e's frozen mixture is stale iff a touched
	// object is reachable from e along a typed path prefix. Sweeping
	// each prefix backward from the touched set computes that
	// reachability exactly at object granularity.
	affected := affectedSources(g2, m.paths, ms.Touched)
	for _, hit := range affected {
		if hit {
			stats.AffectedObjects++
		}
	}

	pop, prScores, prSeconds, prIters, err := computePopularity(g2, m.entityType, m.cfg, m.prScores)
	if err != nil {
		return nil, stats, err
	}
	stats.PageRankSeconds = prSeconds
	stats.PageRankIterations = prIters

	nm := &Model{
		graph:        g2,
		entityType:   m.entityType,
		paths:        m.paths,
		cfg:          m.cfg,
		popularity:   pop,
		prScores:     prScores,
		prSeconds:    prSeconds,
		prIterations: prIters,
		generic:      m.generic,
		cands:        m.cands,
		walker:       metapath.NewWalker(g2, m.cfg.WalkCacheSize),
		// The fuzzy fallback is a serving setting; the new
		// generation keeps it.
		fuzzyDistance: m.fuzzyDistance,
	}

	// Weights and version move together: the kept mixtures were
	// frozen at this version, and the new model keeps serving them
	// under it.
	w, ver := m.snapshotWeightsVer()
	nm.weights = w
	nm.wver = ver

	// Surface-form index: object IDs and names are stable across a
	// merge, so the trie is only stale if the delta added entity-type
	// objects. (A custom candidate source is carried over as-is.)
	if _, ok := m.cands.(*surftrie.Trie); ok {
		oldN := g2.NumObjects() - ms.NewObjects
		for v := oldN; v < g2.NumObjects(); v++ {
			if g2.TypeOf(hin.ObjectID(v)) == m.entityType {
				trie, err := surftrie.Build(g2, m.entityType)
				if err != nil {
					return nil, stats, fmt.Errorf("shine: reindexing entity names: %w", err)
				}
				nm.cands = trie
				stats.TrieRebuilt = true
				break
			}
		}
	}

	// Frozen mixtures: keep every entry whose entity is outside the
	// ball, at the same version. Counters carry over so the
	// monitoring series continue across the swap.
	entries := m.mixtures.snapshotEntries(ver)
	kept := entries[:0]
	for _, en := range entries {
		if int(en.Entity) < len(affected) && !affected[en.Entity] {
			kept = append(kept, en)
		} else {
			stats.MixturesDropped++
		}
	}
	stats.MixturesKept = len(kept)
	nm.mixtures.installEntries(kept, ver)
	nm.mixtures.hits.Store(m.mixtures.hits.Load())
	nm.mixtures.misses.Store(m.mixtures.misses.Load())
	nm.mixtures.builds.Store(m.mixtures.builds.Load())
	nm.mixtures.invalidations.Store(m.mixtures.invalidations.Load())

	return nm, stats, nil
}

// affectedSources marks every object that, as a walk source for one
// of the model's meta-paths, could observe a changed adjacency row on
// the merged graph. A walk over p = r1..rL visits positions 0..L and
// reads the r_{j+1}-out-row of each object it holds at position j,
// j = 0..L−1; the walk's distribution (pruned or not — pruning reads
// a subset of the same rows) is therefore a function of exactly those
// rows. A source is stale iff some touched object sits at a readable
// position, i.e. is forward-reachable from it along a typed prefix
// r1..rj. That set is computed backward: seed position j with the
// touched objects of the position's node type, pull the set through
// inverse relations toward position 0, and union across positions and
// paths.
//
// Granularity is per object, not per (object, relation) row: a
// touched object counts as changed at every position its type can
// occupy. Staged objects have only new rows, and in schemas like DBLP
// each type carries a single relation pair, so little tightness is
// lost. Compared to an undirected distance ball this keeps the blast
// radius of a new paper to its authors' coauthor neighbourhoods and
// its venue's community rather than everything within maxPathLen
// hops.
//
// Touched objects themselves are always marked (their own rows
// changed, covering position 0 of every path). The result is indexed
// by ObjectID on the merged graph.
func affectedSources(g *hin.Graph, paths []metapath.Path, touched []hin.ObjectID) []bool {
	n := g.NumObjects()
	s := g.Schema()
	affected := make([]bool, n)
	for _, v := range touched {
		if int(v) < n {
			affected[v] = true
		}
	}
	// stamp deduplicates per (path, position): an object can occupy
	// several positions of one path, so membership cannot be tracked
	// with a single visited array.
	stamp := make([]int32, n)
	gen := int32(0)
	var cur, next []hin.ObjectID
	for _, p := range paths {
		L := p.Len()
		if L == 0 {
			continue
		}
		rels := p.Relations()
		cur = cur[:0]
		gen++
		// Seed the deepest readable position, then alternate "pull the
		// set back one relation" with "admit touched objects of the
		// shallower position's type" until position 0 is reached.
		for _, u := range touched {
			if g.TypeOf(u) == s.Relation(rels[L-1]).From && stamp[u] != gen {
				stamp[u] = gen
				cur = append(cur, u)
			}
		}
		for j := L - 1; j >= 1; j-- {
			gen++
			next = next[:0]
			inv := s.Inverse(rels[j-1])
			for _, u := range cur {
				for _, w := range g.Neighbors(inv, u) {
					if stamp[w] != gen {
						stamp[w] = gen
						next = append(next, w)
					}
				}
			}
			for _, u := range touched {
				if g.TypeOf(u) == s.Relation(rels[j-1]).From && stamp[u] != gen {
					stamp[u] = gen
					next = append(next, u)
				}
			}
			cur, next = next, cur
		}
		for _, v := range cur {
			affected[v] = true
		}
	}
	return affected
}
