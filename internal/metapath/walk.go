package metapath

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"shine/internal/hin"
	"shine/internal/sparse"
)

// Walker computes meta-path constrained random walk distributions
// Pe(v|p) over a graph (Formulas 10–11 of the paper):
//
//	Pe(v|∅) = 1 if v = e, else 0
//	Pe(v|p) = Σ_{v'} Pe(v'|p') · Rl(v', v) / |Rl(v')|
//
// where p = p' followed by relation Rl. The result of each walk is an
// object distribution: non-negative and summing to at most 1 — mass
// at an object with no Rl-links dies, exactly as the recursive
// formula dictates (each of its terms Rl(v', v) is 0).
//
// A Walker memoises full walk distributions per (entity, path) in a
// bounded LRU cache, because SHINE's EM loop evaluates the same
// candidate entities against the same path set many times. Walker is
// safe for concurrent use. Large caches are striped across
// independently locked shards so the parallel training pipeline and
// concurrent link batches do not serialise on one mutex; each shard
// is an exact LRU over its slice of the key space, so the total
// capacity bound holds per shard rather than globally.
//
// Hop expansion runs on pooled dense scatter-gather accumulators
// (sparse.Accum) rather than a map-backed frontier: scattering mass
// into a dense array costs one array write per link instead of a hash
// probe, and the accumulator lists its touched indices in ascending
// order (a word scan of its bitset, or a sort of a small list), the
// iteration order the determinism guarantee needs. Intermediate
// frontiers stay in the accumulators; only results are frozen into
// immutable sparse.Dist values (parallel sorted arrays), which are
// smaller and GC-friendlier cache entries than maps and support
// O(log n) lookups and O(n+m) merges downstream.
type Walker struct {
	g *hin.Graph
	// accums pools dense accumulators sized to the graph's object
	// count, one checked out per walk in flight.
	accums *sparse.AccumPool
	// shards is nil when caching is disabled. Small caches use a
	// single shard, which preserves exact global LRU semantics.
	shards []*walkShard
	// walks, hops and canceled instrument the hop kernel: full walks
	// computed to completion, relation hops expanded, and walks
	// aborted by context cancellation. Cache hits touch none of them,
	// so a canceled request that did no work is distinguishable from
	// one served from cache.
	walks    atomic.Uint64
	hops     atomic.Uint64
	canceled atomic.Uint64
}

// walkShard is one stripe of the walk cache: an exact LRU with its
// own lock and counters.
type walkShard struct {
	mu        sync.Mutex
	capacity  int
	cache     map[walkKey]*list.Element
	order     *list.List // front = most recently used
	hits      uint64
	misses    uint64
	evictions uint64
}

type walkKey struct {
	entity hin.ObjectID
	path   string
	prune  int
}

type cacheEntry struct {
	key  walkKey
	dist sparse.Dist
}

// DefaultCacheSize is the default number of (entity, path)
// distributions a Walker retains.
const DefaultCacheSize = 65536

const (
	// cacheShards is the stripe count for sharded caches. Fixed so
	// shard assignment — and with it the per-shard metrics series —
	// is stable across hosts.
	cacheShards = 16
	// minShardedCapacity is the total capacity below which the cache
	// stays a single exact LRU: striping a tiny cache would shrink
	// each shard to a handful of entries and make the eviction
	// behaviour hash-dependent for no concurrency win.
	minShardedCapacity = 1024
)

// NewWalker returns a Walker over g with the given cache capacity; a
// non-positive capacity disables caching. Capacities of at least
// minShardedCapacity are divided evenly across cacheShards stripes.
func NewWalker(g *hin.Graph, cacheSize int) *Walker {
	w := &Walker{g: g, accums: sparse.NewAccumPool(g.NumObjects())}
	if cacheSize > 0 {
		n := 1
		if cacheSize >= minShardedCapacity {
			n = cacheShards
		}
		per := (cacheSize + n - 1) / n
		w.shards = make([]*walkShard, n)
		for i := range w.shards {
			w.shards[i] = &walkShard{
				capacity: per,
				cache:    make(map[walkKey]*list.Element),
				order:    list.New(),
			}
		}
	}
	return w
}

// shardFor maps a key to its stripe by FNV-1a over the key fields.
func (w *Walker) shardFor(key walkKey) *walkShard {
	if len(w.shards) == 1 {
		return w.shards[0]
	}
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	h = (h ^ uint32(key.entity)) * prime32
	for i := 0; i < len(key.path); i++ {
		h = (h ^ uint32(key.path[i])) * prime32
	}
	h = (h ^ uint32(key.prune)) * prime32
	return w.shards[h%uint32(len(w.shards))]
}

// Walk returns the distribution Pe(v|p) of observing each object v
// after a random walk from entity e constrained to meta-path p. The
// result is an immutable frozen Dist, shared with the cache and every
// other caller; Thaw it if a mutable copy is needed. Walking the
// empty path returns the unit distribution at e.
//
// maxSupport > 0 prunes the support: after each relation hop, only
// the maxSupport largest entries of the intermediate distribution are
// kept (0 disables pruning). Pruned mass is dropped, not
// redistributed, so the result is an entry-wise lower bound on the
// exact distribution — the approximation a production deployment uses
// when hub objects (a venue with a million papers) would blow up
// intermediate frontiers. Pruned and exact walks are cached under
// distinct keys.
//
// Cancellation is checked before the walk starts and between relation
// hops, so a client that disconnects mid-walk stops paying for the
// remaining hops. An already-canceled context returns ctx.Err()
// before any hop is expanded — not even the cache is consulted — and
// a canceled walk stores nothing in the cache.
func (w *Walker) Walk(ctx context.Context, e hin.ObjectID, p Path, maxSupport int) (sparse.Dist, error) {
	if err := ctx.Err(); err != nil {
		w.canceled.Add(1)
		return sparse.Dist{}, err
	}
	if err := w.checkWalk(e, p, maxSupport); err != nil {
		return sparse.Dist{}, err
	}
	key := walkKey{e, p.Key(), maxSupport}
	if d, ok := w.lookup(key); ok {
		return d, nil
	}
	cur, err := w.computeWalk(ctx, e, p, maxSupport)
	if err != nil {
		return sparse.Dist{}, err
	}
	w.store(key, cur)
	return cur, nil
}

// checkWalk validates a walk request.
func (w *Walker) checkWalk(e hin.ObjectID, p Path, maxSupport int) error {
	if e < 0 || int(e) >= w.g.NumObjects() {
		return fmt.Errorf("metapath: walk from invalid object %d", e)
	}
	if maxSupport < 0 {
		return fmt.Errorf("metapath: negative pruning bound %d", maxSupport)
	}
	if !p.IsEmpty() {
		if start := p.StartType(w.g.Schema()); w.g.TypeOf(e) != start {
			return fmt.Errorf("metapath: path %s starts at type %s but object %d has type %s",
				p, w.g.Schema().Type(start).Abbrev, e,
				w.g.Schema().Type(w.g.TypeOf(e)).Abbrev)
		}
	}
	return nil
}

// computeWalk runs the scatter-gather hop kernel on two pooled
// accumulators used in turn: each hop reads the current frontier
// straight from one accumulator's ordered touched list and dense
// values and scatters it into the other, and only the last hop is
// frozen into a Dist. Support pruning cuts the new frontier in place
// (Accum.Prune), so pruned and exact walks share this one kernel.
// Cancellation is checked once per relation hop (before expanding
// it), the granularity at which a walk's cost accrues; a canceled
// walk returns ctx.Err() and its partial frontier is discarded.
//
// Determinism: float addition is not associative, so the result
// depends on the order mass is scattered. The kernel always visits
// sources in ascending index order and each source's neighbours in
// adjacency-list order — exactly the sequence the original map-backed
// kernel used after sorting its frontier — so walks are bit-for-bit
// reproducible across runs, worker counts, and both kernel
// implementations (ReferenceWalk cross-checks this in tests).
func (w *Walker) computeWalk(ctx context.Context, e hin.ObjectID, p Path, maxSupport int) (sparse.Dist, error) {
	if p.IsEmpty() {
		w.walks.Add(1)
		return sparse.UnitDist(int32(e)), nil
	}
	cur, next := w.accums.Get(), w.accums.Get()
	defer w.accums.Put(cur)
	defer w.accums.Put(next)
	cur.Add(int32(e), 1)
	for _, rel := range p.rels {
		if err := ctx.Err(); err != nil {
			w.canceled.Add(1)
			return sparse.Dist{}, err
		}
		idx, mass := cur.Ordered()
		for _, i := range idx {
			if mass[i] == 0 {
				continue // cancelled to exactly zero: not in the frontier, as in Dist
			}
			nbrs := w.g.Neighbors(rel, hin.ObjectID(i))
			if len(nbrs) == 0 {
				continue // mass dies, per Formula 11
			}
			share := mass[i] / float64(len(nbrs))
			for _, dst := range nbrs {
				next.Add(int32(dst), share)
			}
		}
		cur.Reset()
		if maxSupport > 0 {
			next.Prune(maxSupport)
		}
		cur, next = next, cur
		w.hops.Add(1)
	}
	w.walks.Add(1)
	return cur.Dist(), nil
}

// ReferenceWalk computes Pe(v|p) with the original map-backed kernel,
// without caching or pooling. It is retained as the oracle the CSR
// kernel is cross-checked against (and benchmarked against in
// BenchmarkWalkKernel); production code paths should use Walker.
func ReferenceWalk(g *hin.Graph, e hin.ObjectID, p Path, maxSupport int) (sparse.Vector, error) {
	w := Walker{g: g}
	if err := w.checkWalk(e, p, maxSupport); err != nil {
		return nil, err
	}
	cur := sparse.Unit(int32(e))
	for _, rel := range p.Relations() {
		next := sparse.NewWithCapacity(cur.Len())
		// Expand the frontier in ascending index order, not map order,
		// so the reference result is bit-for-bit reproducible.
		for _, i := range cur.Indices() {
			mass := cur[i]
			v := hin.ObjectID(i)
			deg := g.Degree(rel, v)
			if deg == 0 {
				continue
			}
			share := mass / float64(deg)
			for _, dst := range g.Neighbors(rel, v) {
				next.Add(int32(dst), share)
			}
		}
		if maxSupport > 0 && next.Len() > maxSupport {
			pruned := sparse.NewWithCapacity(maxSupport)
			for _, entry := range next.Top(maxSupport) {
				pruned.Set(entry.Index, entry.Value)
			}
			next = pruned
		}
		cur = next
	}
	return cur, nil
}

// WalkMixtureDist returns the weighted combination Σ_p w_p · Pe(v|p)
// (Formula 12): the entity-specific object model for entity e under
// the given path set and weight vector, with per-hop support pruning
// (see Walk). It accumulates the weighted path distributions on a
// pooled dense accumulator and returns an immutable Dist the caller
// may share freely. Per output index, contributions are added in path
// order — the same sequence as sparse.MixDists and as
// Model.logJoint's per-object path loop — so all three agree
// bit-for-bit.
func (w *Walker) WalkMixtureDist(e hin.ObjectID, paths []Path, weights []float64, maxSupport int) (sparse.Dist, error) {
	return w.WalkMixtureDistContext(context.Background(), e, paths, weights, maxSupport)
}

// WalkMixtureDistContext is WalkMixtureDist under a request context:
// each constituent path walk checks cancellation between hops, so a
// canceled request aborts inside the first unfinished walk rather
// than after the full |paths|-walk mixture.
func (w *Walker) WalkMixtureDistContext(ctx context.Context, e hin.ObjectID, paths []Path, weights []float64, maxSupport int) (sparse.Dist, error) {
	if len(paths) != len(weights) {
		return sparse.Dist{}, fmt.Errorf("metapath: %d paths with %d weights", len(paths), len(weights))
	}
	acc := w.accums.Get()
	defer w.accums.Put(acc)
	for k, p := range paths {
		if weights[k] == 0 {
			continue
		}
		d, err := w.Walk(ctx, e, p, maxSupport)
		if err != nil {
			return sparse.Dist{}, err
		}
		acc.AddScaled(d, weights[k])
	}
	return acc.Dist(), nil
}

func (w *Walker) lookup(key walkKey) (sparse.Dist, bool) {
	if w.shards == nil {
		return sparse.Dist{}, false
	}
	s := w.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.cache[key]
	if !ok {
		s.misses++
		return sparse.Dist{}, false
	}
	s.order.MoveToFront(el)
	s.hits++
	return el.Value.(*cacheEntry).dist, true
}

func (w *Walker) store(key walkKey, dist sparse.Dist) {
	if w.shards == nil {
		return
	}
	s := w.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.cache[key]; ok {
		s.order.MoveToFront(el)
		el.Value.(*cacheEntry).dist = dist
		return
	}
	el := s.order.PushFront(&cacheEntry{key: key, dist: dist})
	s.cache[key] = el
	for len(s.cache) > s.capacity {
		back := s.order.Back()
		if back == nil {
			break
		}
		s.order.Remove(back)
		delete(s.cache, back.Value.(*cacheEntry).key)
		s.evictions++
	}
}

// CacheStats reports cache occupancy, hit/miss and eviction counters.
type CacheStats struct {
	Entries   int
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// snapshot reads one shard's counters under its lock.
func (s *walkShard) snapshot() CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return CacheStats{Entries: len(s.cache), Hits: s.hits, Misses: s.misses, Evictions: s.evictions}
}

// CacheStats returns the walker's cache counters aggregated across
// all shards. Shards are snapshotted one at a time, so the aggregate
// is approximate under concurrent traffic (exact when quiescent).
func (w *Walker) CacheStats() CacheStats {
	var total CacheStats
	for _, s := range w.shards {
		st := s.snapshot()
		total.Entries += st.Entries
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Evictions += st.Evictions
	}
	return total
}

// ShardStats returns a per-shard snapshot of the cache counters, in
// shard-index order. It returns nil when caching is disabled.
func (w *Walker) ShardStats() []CacheStats {
	if w.shards == nil {
		return nil
	}
	out := make([]CacheStats, len(w.shards))
	for i, s := range w.shards {
		out[i] = s.snapshot()
	}
	return out
}

// WalkStats reports the hop-kernel counters: full walks computed to
// completion, relation hops expanded, and walks aborted by context
// cancellation. Cache hits count in none of them.
type WalkStats struct {
	Completed uint64
	Hops      uint64
	Canceled  uint64
}

// WalkStats returns the walker's hop-kernel counters. The three
// loads are independent atomics, so the snapshot is approximate
// under concurrent traffic (exact when quiescent).
func (w *Walker) WalkStats() WalkStats {
	return WalkStats{
		Completed: w.walks.Load(),
		Hops:      w.hops.Load(),
		Canceled:  w.canceled.Load(),
	}
}

// Collect emits the walker's cache counters. The signature matches
// the obs.Collector interface structurally, so an obs.Registry can
// scrape a Walker without this package importing obs (which would be
// an import cycle through shine). Sharded caches additionally emit
// one labelled series per shard, so a dashboard can spot skewed
// stripes.
func (w *Walker) Collect(emit func(name string, value float64)) {
	ws := w.WalkStats()
	emit("shine_walker_walks_total", float64(ws.Completed))
	emit("shine_walker_walk_hops_total", float64(ws.Hops))
	emit("shine_walker_walks_canceled_total", float64(ws.Canceled))
	st := w.CacheStats()
	emit("shine_walker_cache_entries", float64(st.Entries))
	emit("shine_walker_cache_hits_total", float64(st.Hits))
	emit("shine_walker_cache_misses_total", float64(st.Misses))
	emit("shine_walker_cache_evictions_total", float64(st.Evictions))
	if len(w.shards) <= 1 {
		return
	}
	for i, ss := range w.ShardStats() {
		emit(fmt.Sprintf(`shine_walker_cache_shard_entries{shard="%d"}`, i), float64(ss.Entries))
		emit(fmt.Sprintf(`shine_walker_cache_shard_hits_total{shard="%d"}`, i), float64(ss.Hits))
		emit(fmt.Sprintf(`shine_walker_cache_shard_misses_total{shard="%d"}`, i), float64(ss.Misses))
		emit(fmt.Sprintf(`shine_walker_cache_shard_evictions_total{shard="%d"}`, i), float64(ss.Evictions))
	}
}
