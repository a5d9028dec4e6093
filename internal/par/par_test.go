package par

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

func TestClampWorkers(t *testing.T) {
	cases := []struct {
		workers, n, min, max int
	}{
		{0, 10, 1, 10},     // GOMAXPROCS, bounded by n
		{-3, 5, 1, 5},      // negative → GOMAXPROCS, bounded by n
		{4, 2, 2, 2},       // more workers than items
		{4, 100, 4, 4},     // plenty of items
		{1, 0, 1, 1},       // no items still yields 1
		{8, 1000, 8, 8},    // exact
		{3, 3, 3, 3},       // equal
		{100, 7, 7, 7},     // clamp down
		{2, 1 << 30, 2, 2}, // huge n
	}
	for _, c := range cases {
		got := ClampWorkers(c.workers, c.n)
		if got < c.min || got > c.max {
			t.Errorf("ClampWorkers(%d, %d) = %d, want in [%d, %d]", c.workers, c.n, got, c.min, c.max)
		}
	}
}

func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		const n = 1000
		var counts [n]atomic.Int32
		For(n, workers, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestBlocksCoverRangeExactly(t *testing.T) {
	for _, n := range []int{0, 1, 31, 32, 33, 100, 513} {
		covered := make([]bool, n)
		Blocks(n, 32, 1, func(b, lo, hi int) {
			if lo != b*32 {
				t.Fatalf("n=%d block %d: lo=%d", n, b, lo)
			}
			for i := lo; i < hi; i++ {
				if covered[i] {
					t.Fatalf("n=%d: index %d covered twice", n, i)
				}
				covered[i] = true
			}
		})
		for i, ok := range covered {
			if !ok {
				t.Fatalf("n=%d: index %d not covered", n, i)
			}
		}
	}
}

// TestReduceSumBitIdenticalAcrossWorkers is the load-bearing contract:
// the summation tree depends only on (n, block), never on the worker
// count. Adversarial values (wide magnitude spread) make any
// reordering visible in the low bits.
func TestReduceSumBitIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 4097
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
	}
	compute := func(lo, hi int) float64 {
		s := 0.0
		for _, v := range vals[lo:hi] {
			s += v
		}
		return s
	}
	for _, block := range []int{32, 512} {
		want := ReduceSum(n, block, 1, compute)
		for _, workers := range []int{2, 4, 8} {
			got := ReduceSum(n, block, workers, compute)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("block=%d workers=%d: %x != serial %x",
					block, workers, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

func TestReduceVecSumBitIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, dim = 1000, 5
	vals := make([][]float64, n)
	for i := range vals {
		vals[i] = make([]float64, dim)
		for k := range vals[i] {
			vals[i][k] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
		}
	}
	compute := func(lo, hi int, acc []float64) {
		for i := lo; i < hi; i++ {
			for k, v := range vals[i] {
				acc[k] += v
			}
		}
	}
	want := ReduceVecSum(n, DefaultBlock, dim, 1, compute)
	for _, workers := range []int{3, 8} {
		got := ReduceVecSum(n, DefaultBlock, dim, workers, compute)
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("workers=%d dim %d: %v != %v", workers, k, got[k], want[k])
			}
		}
	}
}
