package metapath

import (
	"context"
	"strings"
	"sync"
	"testing"
)

func TestWalkerShardCount(t *testing.T) {
	_, g, _ := paperExample(t)
	cases := []struct {
		capacity   int
		wantShards int
	}{
		{0, 0},                      // caching disabled
		{2, 1},                      // tiny: exact global LRU
		{minShardedCapacity - 1, 1}, // just below the threshold
		{minShardedCapacity, cacheShards},
		{65536, cacheShards},
	}
	for _, c := range cases {
		w := NewWalker(g, c.capacity)
		if got := len(w.shards); got != c.wantShards {
			t.Errorf("NewWalker(capacity=%d): %d shards, want %d", c.capacity, got, c.wantShards)
		}
		// The summed per-shard capacity must cover the requested total.
		total := 0
		for _, s := range w.shards {
			total += s.capacity
		}
		if c.capacity > 0 && total < c.capacity {
			t.Errorf("NewWalker(capacity=%d): shard capacities sum to %d", c.capacity, total)
		}
	}
}

func TestWalkerShardedHitsAndMisses(t *testing.T) {
	d, g, ids := paperExample(t)
	w := NewWalker(g, 2048)
	apv := MustParse(d.Schema, "A-P-V")
	for i := 0; i < 3; i++ {
		if _, err := w.Walk(context.Background(), ids["wei"], apv, 0); err != nil {
			t.Fatal(err)
		}
	}
	st := w.CacheStats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("sharded cache after 3 identical walks: %+v, want 2 hits / 1 miss / 1 entry", st)
	}
}

func TestWalkerShardStatsAggregate(t *testing.T) {
	d, g, ids := paperExample(t)
	w := NewWalker(g, 2048)
	for _, spec := range []string{"A-P-V", "A-P-A", "A-P-T", "A-P-Y", "A-P-A-P-V"} {
		for _, e := range []string{"wei", "coauthor"} {
			if _, err := w.Walk(context.Background(), ids[e], MustParse(d.Schema, spec), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	shards := w.ShardStats()
	if len(shards) != cacheShards {
		t.Fatalf("ShardStats returned %d shards, want %d", len(shards), cacheShards)
	}
	var sum CacheStats
	for _, s := range shards {
		sum.Entries += s.Entries
		sum.Hits += s.Hits
		sum.Misses += s.Misses
		sum.Evictions += s.Evictions
	}
	if sum != w.CacheStats() {
		t.Errorf("ShardStats sum %+v != CacheStats %+v", sum, w.CacheStats())
	}
	// 10 distinct (entity, path) keys must spread across more than one
	// stripe — a degenerate hash would funnel them into one.
	occupied := 0
	for _, s := range shards {
		if s.Entries > 0 {
			occupied++
		}
	}
	if occupied < 2 {
		t.Errorf("all %d cached walks landed in %d shard(s)", sum.Entries, occupied)
	}
}

func TestWalkerShardedCollect(t *testing.T) {
	d, g, ids := paperExample(t)
	w := NewWalker(g, 2048)
	apv := MustParse(d.Schema, "A-P-V")
	for i := 0; i < 3; i++ {
		if _, err := w.Walk(context.Background(), ids["wei"], apv, 0); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]float64{}
	w.Collect(func(name string, value float64) { got[name] = value })
	if got["shine_walker_cache_hits_total"] != 2 || got["shine_walker_cache_misses_total"] != 1 {
		t.Errorf("aggregate series wrong: %v", got)
	}
	// One labelled series per shard and per counter, summing back to
	// the aggregate.
	shardLines, shardHits, shardEntries := 0, 0.0, 0.0
	for name, v := range got {
		if !strings.Contains(name, `{shard="`) {
			continue
		}
		shardLines++
		if strings.HasPrefix(name, "shine_walker_cache_shard_hits_total{") {
			shardHits += v
		}
		if strings.HasPrefix(name, "shine_walker_cache_shard_entries{") {
			shardEntries += v
		}
	}
	if want := cacheShards * 4; shardLines != want {
		t.Errorf("%d per-shard series emitted, want %d", shardLines, want)
	}
	if shardHits != 2 || shardEntries != 1 {
		t.Errorf("per-shard series sum to hits=%v entries=%v, want 2/1", shardHits, shardEntries)
	}
}

func TestWalkerSingleShardCollectOmitsShardSeries(t *testing.T) {
	d, g, ids := paperExample(t)
	w := NewWalker(g, 2)
	if _, err := w.Walk(context.Background(), ids["wei"], MustParse(d.Schema, "A-P-V"), 0); err != nil {
		t.Fatal(err)
	}
	w.Collect(func(name string, _ float64) {
		if strings.Contains(name, "shard") {
			t.Errorf("single-shard cache emitted per-shard series %q", name)
		}
	})
}

// TestWalkerShardedConcurrentStress hammers a sharded cache from many
// goroutines with a widened key space (distinct pruning bounds
// multiply the keys per path), then checks the counter invariants
// that must hold exactly once the walker is quiescent:
//
//	hits + misses == total lookups
//	entries       <= total capacity
//	entries + evictions <= misses (stores never outnumber misses)
//
// Run under -race in verify.sh, this also proves shard striping
// introduces no data races.
func TestWalkerShardedConcurrentStress(t *testing.T) {
	d, g, ids := paperExample(t)
	const capacity = 2048
	w := NewWalker(g, capacity)
	if len(w.shards) != cacheShards {
		t.Fatalf("capacity %d produced %d shards, want %d", capacity, len(w.shards), cacheShards)
	}
	paths := DBLPPaperPaths(d)
	entities := []string{"wei", "coauthor"}

	const goroutines = 8
	const opsPer = 400
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for op := 0; op < opsPer; op++ {
				// Mixed-radix decode of (op + offset) so every
				// goroutine sweeps all 2×10×10 = 200 distinct cache
				// keys, each starting at a different point.
				k := (op + gi*25) % 200
				e := ids[entities[k%len(entities)]]
				p := paths[(k/2)%len(paths)]
				prune := k / 20 // 10 distinct cache keys per (entity, path)
				if _, err := w.Walk(context.Background(), e, p, prune); err != nil {
					errc <- err
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("concurrent pruned Walk: %v", err)
	}

	st := w.CacheStats()
	total := uint64(goroutines * opsPer)
	if st.Hits+st.Misses != total {
		t.Errorf("hits %d + misses %d != %d lookups", st.Hits, st.Misses, total)
	}
	if st.Entries > capacity {
		t.Errorf("entries %d exceed capacity %d", st.Entries, capacity)
	}
	if uint64(st.Entries)+st.Evictions > st.Misses {
		t.Errorf("entries %d + evictions %d exceed misses %d", st.Entries, st.Evictions, st.Misses)
	}

	// Quiescent re-walks of every key must all hit.
	before := w.CacheStats()
	seen := 0
	for _, en := range entities {
		for _, p := range paths {
			for prune := 0; prune < 10; prune++ {
				if _, err := w.Walk(context.Background(), ids[en], p, prune); err != nil {
					t.Fatal(err)
				}
				seen++
			}
		}
	}
	after := w.CacheStats()
	if after.Hits-before.Hits != uint64(seen) {
		t.Errorf("re-walking %d cached keys produced %d hits and %d new misses",
			seen, after.Hits-before.Hits, after.Misses-before.Misses)
	}
}
