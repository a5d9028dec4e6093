package shine

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"shine/internal/corpus"
	"shine/internal/hin"
	"shine/internal/sparse"
)

// The serving path's second level: once Learn (or SetWeights) has
// frozen the meta-path weights, the full entity-specific object model
// Pe(v) = Σ_p w_p · Pe(v|p) (Formula 12) of each candidate entity is
// itself a constant. The mixture index memoises those mixtures as
// immutable frozen sparse.Dist values, so linking a document scores
// each candidate by merging the document's sorted object IDs against
// one frozen array — no per-request re-mixing of |paths| walk
// distributions, no map allocation, no hashing.
//
// Entries are built lazily on first use (or eagerly via
// PrecomputeMixtures / the -precompute CLI flag) and are invalidated
// whenever the weight vector changes: installWeights bumps the
// model's weight version, and every lookup validates
// the entry's version against the snapshot it is serving. A stale
// compute that loses the race with a concurrent weight install is
// still returned to its caller — that caller's whole mention is
// scored under the snapshot it took, matching the Link/Learn
// concurrency contract — but is never stored.

// mixtureIndex is the per-model cache of frozen candidate mixtures.
// The counters are atomics so cache hits — the steady-state serving
// path — never take the write lock.
type mixtureIndex struct {
	mu  sync.RWMutex
	ver uint64 // weight version the entries were built against
	mix map[hin.ObjectID]sparse.Dist

	hits, misses, builds, invalidations atomic.Uint64
}

// invalidate drops every entry and records the new weight version.
func (mi *mixtureIndex) invalidate(ver uint64) {
	mi.mu.Lock()
	mi.ver = ver
	mi.mix = nil
	mi.mu.Unlock()
	mi.invalidations.Add(1)
}

// lookup returns the frozen mixture for e if one is cached at version
// ver, recording the hit or miss.
func (mi *mixtureIndex) lookup(e hin.ObjectID, ver uint64) (sparse.Dist, bool) {
	mi.mu.RLock()
	var d sparse.Dist
	ok := false
	if mi.ver == ver && mi.mix != nil {
		d, ok = mi.mix[e]
	}
	mi.mu.RUnlock()
	if ok {
		mi.hits.Add(1)
	} else {
		mi.misses.Add(1)
	}
	return d, ok
}

// store records a freshly built mixture, unless the index has moved
// past ver (a newer weight vector was installed while it was being
// computed) — storing it then would serve stale mixtures forever.
func (mi *mixtureIndex) store(e hin.ObjectID, d sparse.Dist, ver uint64) {
	mi.builds.Add(1)
	mi.mu.Lock()
	defer mi.mu.Unlock()
	if mi.ver != ver {
		return
	}
	if mi.mix == nil {
		mi.mix = make(map[hin.ObjectID]sparse.Dist)
	}
	mi.mix[e] = d
}

// snapshotEntries returns every mixture cached at version ver, sorted
// by ascending entity ID — the serialisation order binary snapshots
// write. Returns nil if the index has moved past ver or holds nothing.
func (mi *mixtureIndex) snapshotEntries(ver uint64) []MixtureEntry {
	mi.mu.RLock()
	defer mi.mu.RUnlock()
	if mi.ver != ver || len(mi.mix) == 0 {
		return nil
	}
	out := make([]MixtureEntry, 0, len(mi.mix))
	for e, d := range mi.mix {
		out = append(out, MixtureEntry{Entity: e, Mixture: d})
	}
	slices.SortFunc(out, func(a, b MixtureEntry) int { return cmp.Compare(a.Entity, b.Entity) })
	return out
}

// installEntries replaces the whole index with pre-built mixtures at
// the given weight version — the snapshot load path, which restores
// the serving index without re-walking a single meta-path.
func (mi *mixtureIndex) installEntries(entries []MixtureEntry, ver uint64) {
	var mix map[hin.ObjectID]sparse.Dist
	if len(entries) > 0 {
		mix = make(map[hin.ObjectID]sparse.Dist, len(entries))
		for _, en := range entries {
			mix[en.Entity] = en.Mixture
		}
	}
	mi.mu.Lock()
	mi.ver = ver
	mi.mix = mix
	mi.mu.Unlock()
}

// MixtureIndexStats reports the mixture index's occupancy and
// lifecycle counters.
type MixtureIndexStats struct {
	// Entries is the number of candidate entities with a frozen
	// mixture at the current weight version.
	Entries int
	// Hits and Misses count lookups on the serving path.
	Hits, Misses uint64
	// Builds counts mixtures computed (lazily or via precompute).
	Builds uint64
	// Invalidations counts full flushes (weight installs, rebinds).
	Invalidations uint64
}

// MixtureStats returns the mixture index counters.
func (m *Model) MixtureStats() MixtureIndexStats {
	mi := &m.mixtures
	mi.mu.RLock()
	entries := len(mi.mix)
	mi.mu.RUnlock()
	return MixtureIndexStats{
		Entries:       entries,
		Hits:          mi.hits.Load(),
		Misses:        mi.misses.Load(),
		Builds:        mi.builds.Load(),
		Invalidations: mi.invalidations.Load(),
	}
}

// Collect emits the mixture index counters; the signature matches
// obs.Collector structurally so SetMetrics can register the index
// alongside the walker cache.
func (mi *mixtureIndex) Collect(emit func(name string, value float64)) {
	mi.mu.RLock()
	entries := len(mi.mix)
	mi.mu.RUnlock()
	emit(MetricMixtureEntries, float64(entries))
	emit(MetricMixtureHits, float64(mi.hits.Load()))
	emit(MetricMixtureMisses, float64(mi.misses.Load()))
	emit(MetricMixtureBuilds, float64(mi.builds.Load()))
	emit(MetricMixtureInvalidations, float64(mi.invalidations.Load()))
}

// snapshotWeightsVer copies the weight vector and its version under
// one read lock, so a whole mention is scored — and its mixtures
// validated — against a single consistent snapshot.
func (m *Model) snapshotWeightsVer() ([]float64, uint64) {
	m.wmu.RLock()
	defer m.wmu.RUnlock()
	return append([]float64(nil), m.weights...), m.wver
}

// mixtureFor returns candidate e's frozen mixture under the given
// weight snapshot, building and (version permitting) caching it on
// miss. A canceled context aborts the build mid-walk; the partial
// mixture is never stored.
func (m *Model) mixtureFor(ctx context.Context, e hin.ObjectID, w []float64, ver uint64) (sparse.Dist, error) {
	mi := &m.mixtures
	if d, ok := mi.lookup(e, ver); ok {
		return d, nil
	}
	d, err := m.walker.WalkMixtureDistContext(ctx, e, m.paths, w, m.cfg.WalkPruning)
	if err != nil {
		return sparse.Dist{}, err
	}
	mi.store(e, d, ver)
	return d, nil
}

// entityMixture returns entity e's frozen mixture under the current
// weights — the memo behind EntitySpecificProb, so a loop probing N
// objects of one entity walks the meta-paths once, not N times.
func (m *Model) entityMixture(e hin.ObjectID) (sparse.Dist, error) {
	w, ver := m.snapshotWeightsVer()
	return m.mixtureFor(context.Background(), e, w, ver)
}

// mentionMixtures is the frozen-path scoring state for one mention:
// the document's object IDs (ascending), their counts and generic
// probabilities, and per candidate the mixture Pe(v) restricted to
// those objects. It is the serving-time analogue of mentionData,
// with the per-path dimension already contracted against the weight
// snapshot.
type mentionMixtures struct {
	objs    []int32
	counts  []float64
	generic []float64
	// pe[ci][oi] = Σ_p w_p · Pe(object oi | path p) for candidate ci.
	pe [][]float64
}

// prepareMentionMixtures gathers the frozen mixtures of every
// candidate and contracts them against the document's object bag.
// Document.Objects is sorted by ascending object ID, so each
// candidate costs one linear merge against its frozen array.
// Cancellation is checked before each candidate (and, on a cold
// mixture index, between walk hops inside mixtureFor), so a canceled
// request aborts after the current candidate rather than scoring the
// whole set.
func (m *Model) prepareMentionMixtures(ctx context.Context, doc *corpus.Document, cands []hin.ObjectID, w []float64, ver uint64) (*mentionMixtures, error) {
	nObj := len(doc.Objects)
	mx := &mentionMixtures{
		objs:    make([]int32, nObj),
		counts:  make([]float64, nObj),
		generic: make([]float64, nObj),
		pe:      make([][]float64, len(cands)),
	}
	for oi, oc := range doc.Objects {
		mx.objs[oi] = int32(oc.Object)
		mx.counts[oi] = float64(oc.Count)
		mx.generic[oi] = m.generic.Prob(oc.Object)
	}
	rows := make([]float64, len(cands)*nObj)
	for ci, e := range cands {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		d, err := m.mixtureFor(ctx, e, w, ver)
		if err != nil {
			return nil, fmt.Errorf("shine: mixing walks for entity %d: %w", e, err)
		}
		row := rows[ci*nObj : (ci+1)*nObj : (ci+1)*nObj]
		d.GetMany(mx.objs, row)
		mx.pe[ci] = row
	}
	return mx, nil
}

// logJointFrozen computes ln(η·P(e)·P(d|e)) for candidate i of a
// prepared mention from its precontracted mixture row. It performs
// the same floating-point operations in the same order as logJoint's
// per-path loop — the mixture was accumulated in path order per
// object — so the two paths agree bit-for-bit.
func (m *Model) logJointFrozen(mx *mentionMixtures, i int, entity hin.ObjectID) float64 {
	score := math.Log(m.cfg.Eta) + math.Log(math.Max(m.popularity[entity], m.cfg.ProbFloor))
	theta := m.cfg.Theta
	row := mx.pe[i]
	for oi := range mx.counts {
		pv := theta*row[oi] + (1-theta)*mx.generic[oi]
		score += mx.counts[oi] * math.Log(math.Max(pv, m.cfg.ProbFloor))
	}
	return score
}
