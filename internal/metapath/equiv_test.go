package metapath

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"shine/internal/hin"
	"shine/internal/sparse"
	"shine/internal/synth"
)

// TestWalkMatchesReferenceBitForBit: the CSR scatter-gather kernel
// reproduces the map-backed reference kernel exactly — same support,
// same values to the last bit — across random graphs, paths and
// pruning levels. This is the determinism contract the frozen serving
// path rests on.
//
// The random graphs fit in one bitset word, so their accumulators
// always order frontiers by the word scan. The quick benchmark
// network spans ~40 words and its walks end anywhere from one venue
// to hundreds of authors, so its frontiers also take the sort branch;
// the test checks that both sizes occurred.
func TestWalkMatchesReferenceBitForBit(t *testing.T) {
	check := func(name string, g *hin.Graph, paths []Path, authors []hin.ObjectID, rng *rand.Rand) []int {
		w := NewWalker(g, 0) // cache off: every Walk runs the kernel
		var sizes []int
		for _, p := range paths {
			for _, a := range authors {
				maxSupport := 0
				if rng.Intn(2) == 0 {
					maxSupport = 1 + rng.Intn(6)
				}
				got, err := w.Walk(context.Background(), a, p, maxSupport)
				if err != nil {
					t.Fatalf("%s: Walk: %v", name, err)
				}
				want, err := ReferenceWalk(g, a, p, maxSupport)
				if err != nil {
					t.Fatalf("%s: ReferenceWalk: %v", name, err)
				}
				if got.Len() != len(want) {
					t.Fatalf("%s path %s e=%d k=%d: support %d vs reference %d",
						name, p, a, maxSupport, got.Len(), len(want))
				}
				gotIdx, gotVal := got.Raw()
				for k, i := range gotIdx {
					x := gotVal[k]
					if wx := want[i]; x != wx {
						t.Fatalf("%s path %s e=%d k=%d: [%d] = %v, reference %v (bit-for-bit)",
							name, p, a, maxSupport, i, x, wx)
					}
				}
				if maxSupport == 0 {
					sizes = append(sizes, got.Len())
				}
			}
		}
		return sizes
	}
	for seed := int64(0); seed < 30; seed++ {
		d, g, authors := randomDBLP(seed)
		check(fmt.Sprintf("seed %d", seed), g, DBLPPaperPaths(d), authors, rand.New(rand.NewSource(seed)))
	}

	d, g, authors := quickNetwork(t)
	sample := make([]hin.ObjectID, 0, len(authors)/10+1)
	for i := 0; i < len(authors); i += 10 {
		sample = append(sample, authors[i])
	}
	sizes := check("quick", g, DBLPPaperPaths(d), sample, rand.New(rand.NewSource(30)))
	// Whatever the crossover ratio, up to one index per 8 words, a
	// frontier below words/8 indices is sorted and one of at least
	// words indices is scanned.
	words := (g.NumObjects() + 63) / 64
	small, large := 0, 0
	for _, n := range sizes {
		if n > 0 && n < words/8 {
			small++
		}
		if n >= words {
			large++
		}
	}
	if small == 0 || large == 0 {
		t.Fatalf("quick network over %d words: %d walks ended below words/8, %d at words or more; want both",
			words, small, large)
	}
}

// quickNetwork generates the network of the quick benchmark dataset
// (the knobs of experiments.QuickEnv).
func quickNetwork(t testing.TB) (*hin.DBLPSchema, *hin.Graph, []hin.ObjectID) {
	t.Helper()
	cfg := synth.DefaultDBLPConfig()
	cfg.RegularAuthors = 400
	cfg.AmbiguousGroups = 8
	cfg.Topics = 4
	cfg.MaxPapersPerAuthor = 30
	data, err := synth.GenerateDBLP(cfg)
	if err != nil {
		t.Fatalf("GenerateDBLP: %v", err)
	}
	return data.Schema, data.Graph, data.Graph.ObjectsOfType(data.Schema.Author)
}

// TestWalkMixtureDistMatchesVectorMixture: the pooled frozen mixture
// agrees bit-for-bit with mixing the per-path reference walks in path
// order — the addition sequence logJoint uses.
func TestWalkMixtureDistMatchesVectorMixture(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		d, g, authors := randomDBLP(seed)
		w := NewWalker(g, 64)
		paths := DBLPPaperPaths(d)
		rng := rand.New(rand.NewSource(seed + 100))
		weights := make([]float64, len(paths))
		sum := 0.0
		for i := range weights {
			weights[i] = rng.Float64()
			sum += weights[i]
		}
		for i := range weights {
			weights[i] /= sum
		}
		weights[rng.Intn(len(weights))] = 0 // exercise the skip-zero path

		for _, a := range authors {
			got, err := w.WalkMixtureDist(a, paths, weights, 0)
			if err != nil {
				t.Fatalf("seed %d: WalkMixtureDist: %v", seed, err)
			}
			refs := make([]sparse.Dist, len(paths))
			for k, p := range paths {
				rv, err := ReferenceWalk(g, a, p, 0)
				if err != nil {
					t.Fatal(err)
				}
				refs[k] = sparse.Freeze(rv)
			}
			want := sparse.MixDists(refs, weights)
			if got.Len() != want.Len() {
				t.Fatalf("seed %d e=%d: mixture support %d vs %d", seed, a, got.Len(), want.Len())
			}
			gotIdx, gotVal := got.Raw()
			for k, i := range gotIdx {
				x := gotVal[k]
				if wx := want.Get(i); x != wx {
					t.Fatalf("seed %d e=%d: mixture[%d] = %v, want %v (bit-for-bit)", seed, a, i, x, wx)
				}
			}
		}
	}
}

// TestWalkCacheReturnsAreImmutableAliases: the walker hands every
// caller the same frozen Dist backing arrays; corrupting a caller's
// *thawed copy* must not leak back into the cache. (The Dist API is
// read-only, so the only mutation surface is a Thaw'd map — verify the
// cache is unaffected by mutating it.)
func TestWalkCacheReturnsAreImmutableAliases(t *testing.T) {
	d, g, authors := randomDBLP(3)
	w := NewWalker(g, 64)
	p := DBLPPaperPaths(d)[0]
	first, err := w.Walk(context.Background(), authors[0], p, 0)
	if err != nil {
		t.Fatal(err)
	}
	mutable := first.Thaw()
	for i := range mutable {
		mutable[i] = -1 // attack the thawed copy
	}
	again, err := w.Walk(context.Background(), authors[0], p, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ReferenceWalk(g, authors[0], p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again.Len() != len(ref) {
		t.Fatalf("cached support %d, want %d", again.Len(), len(ref))
	}
	againIdx, againVal := again.Raw()
	for k, i := range againIdx {
		x := againVal[k]
		if x != ref[i] {
			t.Fatalf("cache corrupted through a thawed copy: [%d] = %v, want %v", i, x, ref[i])
		}
	}
}
