package shine

import (
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// workerCounts spans the shapes that matter: inline (1), fewer/more
// workers than blocks, and counts that do not divide the block count.
var workerCounts = []int{1, 2, 3, 4, 7, 8, 16, 33}

func TestClampWorkers(t *testing.T) {
	maxprocs := runtime.GOMAXPROCS(0)
	cases := []struct {
		workers, n, want int
	}{
		{0, 100, min(maxprocs, 100)},
		{-5, 100, min(maxprocs, 100)},
		{1, 100, 1},
		{8, 3, 3},
		{8, 100, 8},
		{4, 0, 1},
		{0, 0, 1},
	}
	for _, c := range cases {
		if got := clampWorkers(c.workers, c.n); got != c.want {
			t.Errorf("clampWorkers(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}

func TestParallelForCoversEachIndexOnce(t *testing.T) {
	const n = 1000
	for _, workers := range workerCounts {
		hits := make([]int32, n)
		parallelFor(n, workers, func(i int) {
			atomic.AddInt32(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
	parallelFor(0, 4, func(i int) { t.Errorf("fn called for n=0 (i=%d)", i) })
}

// TestReduceSumBitIdenticalAcrossWorkers is the core determinism
// property: the summation tree depends only on the item count, so any
// worker count yields the exact bits the serial run yields. Checked
// with quick over arbitrary float slices (including denormals and
// huge magnitudes, where reordering would show immediately).
func TestReduceSumBitIdenticalAcrossWorkers(t *testing.T) {
	property := func(vals []float64) bool {
		sum := func(workers int) float64 {
			return reduceSum(len(vals), workers, func(lo, hi int) float64 {
				s := 0.0
				for _, v := range vals[lo:hi] {
					s += v
				}
				return s
			})
		}
		serial := sum(1)
		for _, workers := range workerCounts {
			if math.Float64bits(sum(workers)) != math.Float64bits(serial) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReduceVecSumBitIdenticalAcrossWorkers(t *testing.T) {
	const dim = 5
	property := func(vals []float64) bool {
		sum := func(workers int) []float64 {
			return reduceVecSum(len(vals), dim, workers, func(lo, hi int, acc []float64) {
				for i, v := range vals[lo:hi] {
					acc[(lo+i)%dim] += v
					acc[0] += v / 2
				}
			})
		}
		serial := sum(1)
		for _, workers := range workerCounts {
			got := sum(workers)
			for k := range serial {
				if math.Float64bits(got[k]) != math.Float64bits(serial[k]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestReduceSumMatchesNaiveSum checks the blocked reduction against a
// plain left-to-right sum on posterior-like values in [0, 1): the two
// summation trees differ, so equality is approximate, but for
// well-conditioned sums they must agree to near machine precision.
func TestReduceSumMatchesNaiveSum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		vals := make([]float64, 1+rng.Intn(500))
		naive := 0.0
		for i := range vals {
			vals[i] = rng.Float64()
			naive += vals[i]
		}
		got := reduceSum(len(vals), 4, func(lo, hi int) float64 {
			s := 0.0
			for _, v := range vals[lo:hi] {
				s += v
			}
			return s
		})
		if math.Abs(got-naive) > 1e-9*(1+math.Abs(naive)) {
			t.Fatalf("trial %d: blocked sum %v, naive sum %v", trial, got, naive)
		}
	}
}

// randomMentionData fabricates prepared-mention state with the shapes
// Learn produces: per-candidate path-probability matrices, counts and
// generic probabilities, plus a normalised posterior row per mention.
func randomMentionData(rng *rand.Rand, mentions, paths int) ([]*mentionData, [][]float64) {
	mds := make([]*mentionData, mentions)
	post := make([][]float64, mentions)
	for i := range mds {
		objects := 1 + rng.Intn(6)
		cands := 1 + rng.Intn(4)
		md := &mentionData{
			counts:  make([]float64, objects),
			generic: make([]float64, objects),
			cands:   make([]candidateProfile, cands),
		}
		for oi := 0; oi < objects; oi++ {
			md.counts[oi] = float64(1 + rng.Intn(5))
			md.generic[oi] = rng.Float64()
		}
		for ci := range md.cands {
			md.cands[ci].pathProb = make([][]float64, paths)
			for pi := 0; pi < paths; pi++ {
				row := make([]float64, objects)
				for oi := range row {
					row[oi] = rng.Float64()
				}
				md.cands[ci].pathProb[pi] = row
			}
		}
		mds[i] = md
		row := make([]float64, cands)
		sum := 0.0
		for ci := range row {
			row[ci] = rng.Float64()
			sum += row[ci]
		}
		for ci := range row {
			row[ci] /= sum
		}
		post[i] = row
	}
	return mds, post
}

// TestObjectiveAndGradientBitIdenticalAcrossWorkers drives the actual
// EM reductions (Formulas 22 and 24) over random posterior matrices
// and requires bit-identical results for every worker count.
func TestObjectiveAndGradientBitIdenticalAcrossWorkers(t *testing.T) {
	const paths = 3
	rng := rand.New(rand.NewSource(42))
	mds, post := randomMentionData(rng, 137, paths)
	w := []float64{0.5, 0.3, 0.2}
	subset := make([]int, len(mds))
	for i := range subset {
		subset[i] = i
	}

	modelWith := func(workers int) *Model {
		cfg := DefaultConfig()
		cfg.Workers = workers
		return &Model{cfg: cfg}
	}
	serial := modelWith(1)
	wantObj := serial.objective(mds, post, w)
	wantGrad := make([]float64, paths)
	serial.gradient(mds, post, w, subset, wantGrad)

	for _, workers := range workerCounts {
		m := modelWith(workers)
		if got := m.objective(mds, post, w); math.Float64bits(got) != math.Float64bits(wantObj) {
			t.Errorf("workers=%d: objective %v != serial %v", workers, got, wantObj)
		}
		grad := make([]float64, paths)
		m.gradient(mds, post, w, subset, grad)
		for k := range grad {
			if math.Float64bits(grad[k]) != math.Float64bits(wantGrad[k]) {
				t.Errorf("workers=%d: grad[%d] %v != serial %v", workers, k, grad[k], wantGrad[k])
			}
		}
	}
}

// TestMaximizeReturnsObjectiveAtEnds: the objective values maximize
// returns are J at the weights it started from and at the weights it
// left, bit for bit, whichever way the ascent stops: backtracking that
// runs out of improving steps, backtracking whose loose tolerance
// returns on the first accepted step, and fixed steps. Learn records
// them as the EM trace instead of evaluating J again.
func TestMaximizeReturnsObjectiveAtEnds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mds, post := randomMentionData(rng, 137, 3)
	for _, c := range []struct{ rate, tol float64 }{{0, 1e-7}, {0, 1}, {1e-3, 1e-7}} {
		cfg := DefaultConfig()
		cfg.Workers = 4
		cfg.LearningRate, cfg.GDTolerance = c.rate, c.tol
		m := &Model{cfg: cfg}
		w := make([]float64, 3) // EM's starting point
		want := m.objective(mds, post, w)
		iters, jStart, jEnd := m.maximize(mds, post, w, rand.New(rand.NewSource(1)))
		if iters == 0 {
			t.Fatalf("%+v: maximize took no step", c)
		}
		if math.Float64bits(jStart) != math.Float64bits(want) {
			t.Errorf("%+v: start objective %v, J(w0) = %v", c, jStart, want)
		}
		if got := m.objective(mds, post, w); math.Float64bits(jEnd) != math.Float64bits(got) {
			t.Errorf("%+v: end objective %v, J(w) = %v", c, jEnd, got)
		}
	}
}

// TestProjectKeepsSimplex: after projection the weight vector is
// non-negative and sums to 1 (or is identically zero when nothing
// positive remains) — for any input, hence under any worker count's
// gradient steps.
func TestProjectKeepsSimplex(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		w := make([]float64, 1+rng.Intn(10))
		for k := range w {
			w[k] = (rng.Float64() - 0.5) * 20
		}
		project(w)
		sum := 0.0
		for k, x := range w {
			if x < 0 {
				t.Fatalf("trial %d: w[%d] = %v negative after project", trial, k, x)
			}
			sum += x
		}
		if sum != 0 && math.Abs(sum-1) > 1e-12 {
			t.Fatalf("trial %d: projected weights sum to %v", trial, sum)
		}
	}
	// All-negative input degenerates to the zero vector, not NaN.
	w := []float64{-1, -2}
	project(w)
	if w[0] != 0 || w[1] != 0 {
		t.Errorf("all-negative projection = %v, want zeros", w)
	}
}
