package metapath

import (
	"context"
	"fmt"
	"testing"

	"shine/internal/hin"
)

// TestCloneForKeepsSurvivingEntries: after a delta, a clone with a
// keep predicate serves the surviving entity's walk from cache and
// recomputes the rejected one.
func TestCloneForKeepsSurvivingEntries(t *testing.T) {
	d, g, ids := paperExample(t)
	w := NewWalker(g, 16)
	apv := MustParse(d.Schema, "A-P-V")

	weiDist, err := w.Walk(context.Background(), ids["wei"], apv, 0)
	if err != nil {
		t.Fatalf("Walk(wei): %v", err)
	}
	if _, err := w.Walk(context.Background(), ids["coauthor"], apv, 0); err != nil {
		t.Fatalf("Walk(coauthor): %v", err)
	}

	// Delta touching only the coauthor's neighbourhood.
	delta := g.Append()
	p := delta.MustAppend(d.Paper, "co-new-paper")
	delta.MustPatch(d.Write, ids["coauthor"], p)
	delta.MustPatch(d.Publish, ids["vldb"], p)
	g2, _, err := delta.Merge()
	if err != nil {
		t.Fatalf("merge: %v", err)
	}

	nw, stats := w.CloneFor(g2, func(e hin.ObjectID) bool { return e != ids["coauthor"] })
	if nw.g != g2 {
		t.Fatal("clone does not serve the new graph")
	}
	if stats.Kept != 1 || stats.Dropped != 1 {
		t.Fatalf("stats = %+v, want Kept=1 Dropped=1", stats)
	}

	base := nw.CacheStats()
	got, err := nw.Walk(context.Background(), ids["wei"], apv, 0)
	if err != nil {
		t.Fatalf("clone Walk(wei): %v", err)
	}
	after := nw.CacheStats()
	if after.Hits != base.Hits+1 {
		t.Errorf("surviving entry was not a cache hit: hits %d -> %d", base.Hits, after.Hits)
	}
	for _, v := range []hin.ObjectID{ids["sigmod"], ids["vldb"], ids["sigmetrics"]} {
		if got.Get(int32(v)) != weiDist.Get(int32(v)) {
			t.Errorf("migrated distribution differs at %d", v)
		}
	}

	if _, err := nw.Walk(context.Background(), ids["coauthor"], apv, 0); err != nil {
		t.Fatalf("clone Walk(coauthor): %v", err)
	}
	final := nw.CacheStats()
	if final.Misses != after.Misses+1 {
		t.Errorf("dropped entry was not recomputed: misses %d -> %d", after.Misses, final.Misses)
	}
}

// TestCloneForNilKeepKeepsAll: a nil predicate migrates every entry
// and carries the counters forward.
func TestCloneForNilKeepKeepsAll(t *testing.T) {
	d, g, ids := paperExample(t)
	w := NewWalker(g, 16)
	apv := MustParse(d.Schema, "A-P-V")
	for _, e := range []hin.ObjectID{ids["wei"], ids["coauthor"]} {
		if _, err := w.Walk(context.Background(), e, apv, 0); err != nil {
			t.Fatalf("Walk: %v", err)
		}
	}
	// A second walk to accumulate a hit.
	if _, err := w.Walk(context.Background(), ids["wei"], apv, 0); err != nil {
		t.Fatalf("Walk: %v", err)
	}
	before, walksBefore := w.CacheStats(), w.WalkStats()

	nw, stats := w.CloneFor(g, nil)
	if stats.Kept != 2 || stats.Dropped != 0 {
		t.Fatalf("stats = %+v, want Kept=2 Dropped=0", stats)
	}
	after, walksAfter := nw.CacheStats(), nw.WalkStats()
	if after.Entries != before.Entries || after.Hits != before.Hits ||
		after.Misses != before.Misses || after.Evictions != before.Evictions {
		t.Errorf("cache counters not carried: before %+v after %+v", before, after)
	}
	if walksAfter != walksBefore {
		t.Errorf("walk counters not carried: before %+v after %+v", walksBefore, walksAfter)
	}
}

// TestCloneForShardedPreservesLRUOrder builds a sharded walker, fills
// one logical stream of entries and checks the clone evicts in the
// same order the source would have — i.e. recency survived migration.
func TestCloneForShardedPreservesLRUOrder(t *testing.T) {
	d := hin.NewDBLPSchema()
	b := hin.NewBuilder(d.Schema)
	v := b.MustAddObject(d.Venue, "v")
	authors := make([]hin.ObjectID, 64)
	for i := range authors {
		authors[i] = b.MustAddObject(d.Author, fmt.Sprintf("a%d", i))
		p := b.MustAddObject(d.Paper, fmt.Sprintf("p%d", i))
		b.MustAddLink(d.Write, authors[i], p)
		b.MustAddLink(d.Publish, v, p)
	}
	g := b.Build()

	w := NewWalker(g, minShardedCapacity)
	if len(w.shards) != cacheShards {
		t.Fatalf("expected a sharded walker, got %d shards", len(w.shards))
	}
	apv := MustParse(d.Schema, "A-P-V")
	for _, a := range authors {
		if _, err := w.Walk(context.Background(), a, apv, 0); err != nil {
			t.Fatalf("Walk: %v", err)
		}
	}

	nw, stats := w.CloneFor(g, nil)
	if stats.Kept != len(authors) {
		t.Fatalf("kept %d entries, want %d", stats.Kept, len(authors))
	}
	if len(nw.shards) != len(w.shards) {
		t.Fatalf("shard count not mirrored: %d vs %d", len(nw.shards), len(w.shards))
	}
	for i, src := range w.shards {
		dst := nw.shards[i]
		if dst.capacity != src.capacity {
			t.Fatalf("shard %d capacity %d, want %d", i, dst.capacity, src.capacity)
		}
		se, de := src.order.Front(), dst.order.Front()
		for se != nil || de != nil {
			if se == nil || de == nil {
				t.Fatalf("shard %d order length mismatch", i)
			}
			sk := se.Value.(*cacheEntry).key
			dk := de.Value.(*cacheEntry).key
			if sk != dk {
				t.Fatalf("shard %d recency order diverged: %v vs %v", i, sk, dk)
			}
			se, de = se.Next(), de.Next()
		}
	}
}
