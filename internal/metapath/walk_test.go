package metapath

import (
	"context"
	"fmt"
	"math"
	"testing"

	"shine/internal/hin"
	"shine/internal/sparse"
)

// paperExample builds the Section 3.2 scenario: an author with six
// SIGMOD papers, one VLDB paper and one SIGMETRICS paper, plus a
// coauthor on one of the SIGMOD papers who also publishes in VLDB.
func paperExample(t testing.TB) (*hin.DBLPSchema, *hin.Graph, map[string]hin.ObjectID) {
	t.Helper()
	d := hin.NewDBLPSchema()
	b := hin.NewBuilder(d.Schema)
	ids := map[string]hin.ObjectID{
		"wei":        b.MustAddObject(d.Author, "Wei Wang"),
		"coauthor":   b.MustAddObject(d.Author, "Richard R. Muntz"),
		"sigmod":     b.MustAddObject(d.Venue, "SIGMOD"),
		"vldb":       b.MustAddObject(d.Venue, "VLDB"),
		"sigmetrics": b.MustAddObject(d.Venue, "SIGMETRICS"),
	}
	for i := 0; i < 6; i++ {
		p := b.MustAddObject(d.Paper, fmt.Sprintf("sigmod-p%d", i))
		b.MustAddLink(d.Write, ids["wei"], p)
		b.MustAddLink(d.Publish, ids["sigmod"], p)
		if i == 0 {
			b.MustAddLink(d.Write, ids["coauthor"], p)
			ids["shared"] = p
		}
	}
	pv := b.MustAddObject(d.Paper, "vldb-p")
	b.MustAddLink(d.Write, ids["wei"], pv)
	b.MustAddLink(d.Publish, ids["vldb"], pv)
	ps := b.MustAddObject(d.Paper, "sigmetrics-p")
	b.MustAddLink(d.Write, ids["wei"], ps)
	b.MustAddLink(d.Publish, ids["sigmetrics"], ps)
	// The coauthor publishes two more papers in VLDB.
	for i := 0; i < 2; i++ {
		p := b.MustAddObject(d.Paper, fmt.Sprintf("co-vldb-p%d", i))
		b.MustAddLink(d.Write, ids["coauthor"], p)
		b.MustAddLink(d.Publish, ids["vldb"], p)
	}
	return d, b.Build(), ids
}

func TestWalkEmptyPathIsUnit(t *testing.T) {
	_, g, ids := paperExample(t)
	w := NewWalker(g, 16)
	d, err := w.Walk(context.Background(), ids["wei"], Path{}, 0)
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	if d.Len() != 1 || d.Get(int32(ids["wei"])) != 1 {
		t.Errorf("empty-path walk = %v", d)
	}
}

func TestWalkAPVMatchesPaperRatios(t *testing.T) {
	d, g, ids := paperExample(t)
	w := NewWalker(g, 16)
	apv := MustParse(d.Schema, "A-P-V")
	dist, err := w.Walk(context.Background(), ids["wei"], apv, 0)
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	// Wei has 8 papers: 6 SIGMOD, 1 VLDB, 1 SIGMETRICS. The paper
	// reports the SIGMOD probability is exactly 6x the VLDB one and
	// VLDB equals SIGMETRICS.
	ps := dist.Get(int32(ids["sigmod"]))
	pv := dist.Get(int32(ids["vldb"]))
	pm := dist.Get(int32(ids["sigmetrics"]))
	if math.Abs(ps-0.75) > 1e-12 {
		t.Errorf("P(SIGMOD) = %v, want 0.75", ps)
	}
	if math.Abs(pv-pm) > 1e-12 {
		t.Errorf("P(VLDB)=%v != P(SIGMETRICS)=%v", pv, pm)
	}
	if math.Abs(ps/pv-6) > 1e-9 {
		t.Errorf("SIGMOD/VLDB ratio = %v, want 6", ps/pv)
	}
	if !dist.IsDistribution(1e-12) {
		t.Errorf("A-P-V walk is not a distribution: sum = %v", dist.Sum())
	}
}

func TestWalkAPACoauthors(t *testing.T) {
	d, g, ids := paperExample(t)
	w := NewWalker(g, 16)
	apa := MustParse(d.Schema, "A-P-A")
	dist, err := w.Walk(context.Background(), ids["wei"], apa, 0)
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	// From wei: 8 papers uniformly; the shared paper has authors
	// {wei, coauthor}, the others only wei. So P(coauthor) = 1/8 * 1/2.
	want := 1.0 / 16
	if got := dist.Get(int32(ids["coauthor"])); math.Abs(got-want) > 1e-12 {
		t.Errorf("P(coauthor) = %v, want %v", got, want)
	}
	// Walks may return to the start: P(wei) = 7/8 + 1/16.
	if got := dist.Get(int32(ids["wei"])); math.Abs(got-(7.0/8+1.0/16)) > 1e-12 {
		t.Errorf("P(wei) = %v", got)
	}
}

func TestWalkLength4DiffersFromLength2(t *testing.T) {
	d, g, ids := paperExample(t)
	w := NewWalker(g, 16)
	apv, _ := w.Walk(context.Background(), ids["wei"], MustParse(d.Schema, "A-P-V"), 0)
	apapv, err := w.Walk(context.Background(), ids["wei"], MustParse(d.Schema, "A-P-A-P-V"), 0)
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	// Via the coauthor (who favours VLDB), the length-4 path shifts
	// relative mass towards VLDB compared to the direct path.
	direct := apv.Get(int32(ids["vldb"])) / apv.Get(int32(ids["sigmod"]))
	viaCo := apapv.Get(int32(ids["vldb"])) / apapv.Get(int32(ids["sigmod"]))
	if viaCo <= direct {
		t.Errorf("A-P-A-P-V VLDB share (%v) not above A-P-V share (%v)", viaCo, direct)
	}
	if apapv.Sum() > 1+1e-12 {
		t.Errorf("walk mass exceeds 1: %v", apapv.Sum())
	}
}

func TestWalkMassDiesAtDeadEnds(t *testing.T) {
	d := hin.NewDBLPSchema()
	b := hin.NewBuilder(d.Schema)
	a := b.MustAddObject(d.Author, "A1")
	p1 := b.MustAddObject(d.Paper, "P1") // has a venue
	p2 := b.MustAddObject(d.Paper, "P2") // no venue: dead end for A-P-V
	v := b.MustAddObject(d.Venue, "V1")
	b.MustAddLink(d.Write, a, p1)
	b.MustAddLink(d.Write, a, p2)
	b.MustAddLink(d.Publish, v, p1)
	g := b.Build()

	w := NewWalker(g, 16)
	dist, err := w.Walk(context.Background(), a, MustParse(d.Schema, "A-P-V"), 0)
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	if math.Abs(dist.Sum()-0.5) > 1e-12 {
		t.Errorf("sum = %v, want 0.5 (half the mass dies at the venue-less paper)", dist.Sum())
	}
	if got := dist.Get(int32(v)); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("P(V1) = %v, want 0.5", got)
	}
}

func TestWalkTypeMismatch(t *testing.T) {
	d, g, ids := paperExample(t)
	w := NewWalker(g, 16)
	if _, err := w.Walk(context.Background(), ids["sigmod"], MustParse(d.Schema, "A-P-V"), 0); err == nil {
		t.Error("walking an author path from a venue accepted")
	}
	if _, err := w.Walk(context.Background(), hin.ObjectID(10_000), MustParse(d.Schema, "A-P-V"), 0); err == nil {
		t.Error("walking from out-of-range object accepted")
	}
}

// TestWalkMixture: the mixture Σ_p w_p·Pe(v|p) (Formula 12) equals
// sparse.MixDists over the constituent walks, zero-weight paths
// contribute nothing, and a weight vector of the wrong length is
// rejected.
func TestWalkMixture(t *testing.T) {
	d, g, ids := paperExample(t)
	w := NewWalker(g, 16)
	paths := []Path{MustParse(d.Schema, "A-P-V"), MustParse(d.Schema, "A-P-A")}
	mix, err := w.WalkMixtureDist(ids["wei"], paths, []float64{0.5, 0.5}, 0)
	if err != nil {
		t.Fatalf("WalkMixtureDist: %v", err)
	}
	apv, _ := w.Walk(context.Background(), ids["wei"], paths[0], 0)
	apa, _ := w.Walk(context.Background(), ids["wei"], paths[1], 0)
	want := sparse.MixDists([]sparse.Dist{apv, apa}, []float64{0.5, 0.5})
	if !mix.Equal(want, 1e-12) {
		t.Errorf("mixture = %v, want %v", mix, want)
	}
	// Zero-weight paths must be skipped entirely.
	onlyAPV, err := w.WalkMixtureDist(ids["wei"], paths, []float64{1, 0}, 0)
	if err != nil {
		t.Fatalf("WalkMixtureDist: %v", err)
	}
	if !onlyAPV.Equal(apv, 1e-12) {
		t.Error("zero-weight path contributed mass")
	}
	if _, err := w.WalkMixtureDist(ids["wei"], paths, []float64{1}, 0); err == nil {
		t.Error("mismatched weights accepted")
	}
}

// TestUncachedWalkAllocs pins the allocations of an uncached length-4
// walk: the cache key and the two arrays of the returned Dist.
// Intermediate frontiers stay in the two pooled accumulators, so a
// per-hop freeze coming back shows here as two more allocations per
// hop.
func TestUncachedWalkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops accumulators at random under the race detector")
	}
	d, g, ids := paperExample(t)
	w := NewWalker(g, 0)
	p := MustParse(d.Schema, "A-P-A-P-V")
	walk := func() {
		if _, err := w.Walk(context.Background(), ids["wei"], p, 0); err != nil {
			t.Fatal(err)
		}
	}
	walk() // fill the accumulator pool
	if avg := testing.AllocsPerRun(100, walk); avg > 4 {
		t.Errorf("uncached length-4 walk allocates %.1f objects, want <= 4", avg)
	}
}

func TestWalkerCacheHitsAndEviction(t *testing.T) {
	d, g, ids := paperExample(t)
	w := NewWalker(g, 2)
	apv := MustParse(d.Schema, "A-P-V")
	apa := MustParse(d.Schema, "A-P-A")
	apt := MustParse(d.Schema, "A-P-T")

	if _, err := w.Walk(context.Background(), ids["wei"], apv, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Walk(context.Background(), ids["wei"], apv, 0); err != nil {
		t.Fatal(err)
	}
	st := w.CacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("after repeat walk: hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}

	// Fill beyond capacity; the least recently used entry (apv after
	// touching apa) must be evicted.
	if _, err := w.Walk(context.Background(), ids["wei"], apa, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Walk(context.Background(), ids["wei"], apt, 0); err != nil {
		t.Fatal(err)
	}
	if st := w.CacheStats(); st.Entries != 2 {
		t.Errorf("cache entries = %d, want 2", st.Entries)
	}
	before := w.CacheStats().Misses
	if _, err := w.Walk(context.Background(), ids["wei"], apv, 0); err != nil {
		t.Fatal(err)
	}
	if after := w.CacheStats().Misses; after != before+1 {
		t.Error("evicted entry served from cache")
	}
}

func TestWalkerCacheDisabled(t *testing.T) {
	d, g, ids := paperExample(t)
	w := NewWalker(g, 0)
	apv := MustParse(d.Schema, "A-P-V")
	d1, err := w.Walk(context.Background(), ids["wei"], apv, 0)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := w.Walk(context.Background(), ids["wei"], apv, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !d1.Equal(d2, 1e-15) {
		t.Error("uncached walks disagree")
	}
	if st := w.CacheStats(); st.Entries != 0 {
		t.Errorf("disabled cache holds %d entries", st.Entries)
	}
}

func TestWalkerConcurrentUse(t *testing.T) {
	d, g, ids := paperExample(t)
	w := NewWalker(g, 4)
	paths := DBLPPaperPaths(d)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			for j := 0; j < 50; j++ {
				if _, err := w.Walk(context.Background(), ids["wei"], paths[(i+j)%len(paths)], 0); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatalf("concurrent walk: %v", err)
		}
	}
}

func TestWalkPrunedSubsetOfExact(t *testing.T) {
	d, g, ids := paperExample(t)
	w := NewWalker(g, 64)
	p := MustParse(d.Schema, "A-P-A-P-V")
	exact, err := w.Walk(context.Background(), ids["wei"], p, 0)
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := w.Walk(context.Background(), ids["wei"], p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Len() > 2 {
		t.Fatalf("pruned support %d > 2", pruned.Len())
	}
	prunedIdx, prunedVal := pruned.Raw()
	for k, i := range prunedIdx {
		x := prunedVal[k]
		if x > exact.Get(i)+1e-12 {
			t.Errorf("pruned[%d] = %v exceeds exact %v", i, x, exact.Get(i))
		}
	}
	if pruned.Sum() > exact.Sum()+1e-12 {
		t.Error("pruned mass exceeds exact mass")
	}
}

func TestWalkPrunedZeroIsExact(t *testing.T) {
	d, g, ids := paperExample(t)
	w := NewWalker(g, 64)
	p := MustParse(d.Schema, "A-P-V")
	exact, err := ReferenceWalk(g, ids["wei"], p, 0)
	if err != nil {
		t.Fatal(err)
	}
	viaPruned, err := w.Walk(context.Background(), ids["wei"], p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !viaPruned.Equal(sparse.Freeze(exact), 0) {
		t.Error("Walk with maxSupport 0 differs from the exact reference walk")
	}
}

func TestWalkPrunedCacheKeysDistinct(t *testing.T) {
	d, g, ids := paperExample(t)
	w := NewWalker(g, 64)
	p := MustParse(d.Schema, "A-P-V")
	exact, _ := w.Walk(context.Background(), ids["wei"], p, 0)
	pruned, err := w.Walk(context.Background(), ids["wei"], p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Len() == pruned.Len() {
		t.Fatal("test needs a path with support > 1")
	}
	// Re-fetch both; the cache must not have mixed them up.
	exact2, _ := w.Walk(context.Background(), ids["wei"], p, 0)
	if !exact.Equal(exact2, 0) {
		t.Error("exact walk corrupted by pruned cache entry")
	}
}

func TestWalkPrunedRejectsNegative(t *testing.T) {
	d, g, ids := paperExample(t)
	w := NewWalker(g, 4)
	if _, err := w.Walk(context.Background(), ids["wei"], MustParse(d.Schema, "A-P-V"), -1); err == nil {
		t.Error("negative pruning bound accepted")
	}
}

func TestWalkMixturePruned(t *testing.T) {
	d, g, ids := paperExample(t)
	w := NewWalker(g, 64)
	paths := []Path{MustParse(d.Schema, "A-P-V"), MustParse(d.Schema, "A-P-A-P-V")}
	mix, err := w.WalkMixtureDist(ids["wei"], paths, []float64{0.5, 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	exactMix, _ := w.WalkMixtureDist(ids["wei"], paths, []float64{0.5, 0.5}, 0)
	if mix.Sum() > exactMix.Sum()+1e-12 {
		t.Error("pruned mixture mass exceeds exact")
	}
}

func TestWalkerEvictionCounter(t *testing.T) {
	d, g, ids := paperExample(t)
	w := NewWalker(g, 2)
	for _, spec := range []string{"A-P-V", "A-P-A", "A-P-T"} {
		if _, err := w.Walk(context.Background(), ids["wei"], MustParse(d.Schema, spec), 0); err != nil {
			t.Fatal(err)
		}
	}
	st := w.CacheStats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1 (capacity 2, 3 distinct walks)", st.Evictions)
	}
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}
}

func TestWalkerCollect(t *testing.T) {
	d, g, ids := paperExample(t)
	w := NewWalker(g, 2)
	apv := MustParse(d.Schema, "A-P-V")
	for i := 0; i < 3; i++ {
		if _, err := w.Walk(context.Background(), ids["wei"], apv, 0); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]float64{}
	w.Collect(func(name string, value float64) { got[name] = value })
	want := map[string]float64{
		"shine_walker_cache_entries":         1,
		"shine_walker_cache_hits_total":      2,
		"shine_walker_cache_misses_total":    1,
		"shine_walker_cache_evictions_total": 0,
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %v, want %v", name, got[name], v)
		}
	}
}
