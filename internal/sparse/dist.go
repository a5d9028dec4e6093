package sparse

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"
)

// Dist is an immutable sparse distribution in CSR-style layout:
// parallel arrays of strictly ascending int32 indices and their
// non-zero float64 values. It stores the same information as a Vector
// but without per-entry hashing: lookups are binary searches, scans
// are cache-friendly array walks, and the footprint per entry is 12
// bytes plus no bucket overhead — the representation PathSim-style
// meta-path engines use for frozen walk statistics.
//
// The zero value is a usable empty distribution. A Dist must never be
// mutated after construction; all methods are read-only and the
// backing arrays may be shared by many readers (the walker cache
// hands the same Dist to every caller).
type Dist struct {
	idx []int32
	val []float64
}

// Freeze converts a map-backed Vector into a Dist. Entries whose
// value is exactly zero are dropped (a Vector built through Set/Add
// never stores them, but a literal might). The input is not retained.
func Freeze(v Vector) Dist {
	if len(v) == 0 {
		return Dist{}
	}
	idx := make([]int32, 0, len(v))
	for i, x := range v {
		if x != 0 {
			idx = append(idx, i)
		}
	}
	slices.Sort(idx)
	val := make([]float64, len(idx))
	for k, i := range idx {
		val[k] = v[i]
	}
	return Dist{idx: idx, val: val}
}

// Thaw converts the Dist back into a map-backed Vector. The result is
// freshly allocated and owned by the caller.
func (d Dist) Thaw() Vector {
	v := make(Vector, len(d.idx))
	for k, i := range d.idx {
		v[i] = d.val[k]
	}
	return v
}

// UnitDist returns the distribution with a single entry of 1 at index
// i — the starting distribution of a random walk rooted at object i.
func UnitDist(i int32) Dist {
	return Dist{idx: []int32{i}, val: []float64{1}}
}

// Len returns the number of stored (non-zero) entries.
func (d Dist) Len() int { return len(d.idx) }

// Get returns the value at index i (zero if absent) by binary search.
func (d Dist) Get(i int32) float64 {
	lo, hi := 0, len(d.idx)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d.idx[mid] < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(d.idx) && d.idx[lo] == i {
		return d.val[lo]
	}
	return 0
}

// GetMany writes the value at each index of sorted into out (zero for
// absent indices) with a single linear merge over the two ascending
// sequences. sorted must be in ascending order; out must have
// len(sorted) capacity. This is the serving-path primitive: scoring a
// document merges its sorted object IDs against a frozen mixture in
// O(|doc| + |dist|) with no hashing.
func (d Dist) GetMany(sorted []int32, out []float64) {
	k := 0
	for j, i := range sorted {
		for k < len(d.idx) && d.idx[k] < i {
			k++
		}
		if k < len(d.idx) && d.idx[k] == i {
			out[j] = d.val[k]
		} else {
			out[j] = 0
		}
	}
}

// Sum returns the sum of all entries, accumulated in ascending index
// order (deterministic).
func (d Dist) Sum() float64 {
	s := 0.0
	for _, x := range d.val {
		s += x
	}
	return s
}

// compareTopEntries orders entries by descending value, ties broken
// by ascending index — the shared selection rule of Vector.Top and
// Accum.Prune.
func compareTopEntries(a, b Entry) int {
	switch {
	case a.Value > b.Value:
		return -1
	case a.Value < b.Value:
		return 1
	case a.Index < b.Index:
		return -1
	case a.Index > b.Index:
		return 1
	}
	return 0
}

// Raw exposes the backing arrays: strictly ascending indices and
// their values. Both slices are shared with the Dist and must not be
// modified — this is the zero-copy accessor binary snapshot writers
// iterate.
func (d Dist) Raw() (idx []int32, val []float64) {
	return d.idx, d.val
}

// NewDistFromRaw adopts pre-built index/value arrays as a Dist without
// copying, after validating the Dist invariants: equal lengths,
// strictly ascending indices, no stored zeros and no non-finite
// values. The slices are retained and must not be modified afterwards.
// This is the snapshot load path: a deserialised artifact becomes a
// servable distribution in one O(n) validation pass.
func NewDistFromRaw(idx []int32, val []float64) (Dist, error) {
	if len(idx) != len(val) {
		return Dist{}, fmt.Errorf("sparse: %d indices for %d values", len(idx), len(val))
	}
	for k, i := range idx {
		if k > 0 && idx[k-1] >= i {
			return Dist{}, fmt.Errorf("sparse: indices not strictly ascending at position %d (%d after %d)", k, i, idx[k-1])
		}
		if i < 0 {
			return Dist{}, fmt.Errorf("sparse: negative index %d at position %d", i, k)
		}
		if x := val[k]; x == 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return Dist{}, fmt.Errorf("sparse: invalid stored value %v at position %d", x, k)
		}
	}
	return Dist{idx: idx, val: val}, nil
}

// Equal reports whether d and e agree entry-wise within tol.
func (d Dist) Equal(e Dist, tol float64) bool {
	a, b := 0, 0
	for a < len(d.idx) && b < len(e.idx) {
		switch {
		case d.idx[a] < e.idx[b]:
			if abs(d.val[a]) > tol {
				return false
			}
			a++
		case d.idx[a] > e.idx[b]:
			if abs(e.val[b]) > tol {
				return false
			}
			b++
		default:
			if abs(d.val[a]-e.val[b]) > tol {
				return false
			}
			a++
			b++
		}
	}
	for ; a < len(d.idx); a++ {
		if abs(d.val[a]) > tol {
			return false
		}
	}
	for ; b < len(e.idx); b++ {
		if abs(e.val[b]) > tol {
			return false
		}
	}
	return true
}

// IsDistribution reports whether d is a probability distribution: all
// entries non-negative and summing to 1 within tol. An empty Dist is
// not a distribution.
func (d Dist) IsDistribution(tol float64) bool {
	if len(d.idx) == 0 {
		return false
	}
	for _, x := range d.val {
		if x < -tol {
			return false
		}
	}
	return abs(d.Sum()-1) <= tol
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// String renders up to 8 entries in index order, for debugging.
func (d Dist) String() string {
	var b strings.Builder
	b.WriteString("{")
	for k, i := range d.idx {
		if k == 8 {
			fmt.Fprintf(&b, " …+%d", len(d.idx)-8)
			break
		}
		if k > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%d:%.4g", i, d.val[k])
	}
	b.WriteString("}")
	return b.String()
}

// MixDists returns Σ c_k · ds_k as a frozen Dist: the CSR counterpart
// of Mix. For every output index, contributions are accumulated in
// slice order k — the same per-index addition sequence as the
// map-backed Mix — so the two agree bit-for-bit. len(cs) must equal
// len(ds).
func MixDists(ds []Dist, cs []float64) Dist {
	if len(ds) != len(cs) {
		panic(fmt.Sprintf("sparse: MixDists with %d distributions and %d coefficients", len(ds), len(cs)))
	}
	n := int32(0)
	for _, d := range ds {
		if l := len(d.idx); l > 0 && d.idx[l-1]+1 > n {
			n = d.idx[l-1] + 1
		}
	}
	acc := NewAccum(int(n))
	acc.AddMix(ds, cs)
	return acc.Dist()
}

// Accum is a dense scatter-gather accumulator: a dense value array, a
// bitset of touched indices and the list of those indices, so
// building a sparse result costs O(touched) and resetting costs
// O(touched) rather than O(dense). It is the workhorse of the CSR
// walk kernel — frontier expansion scatters into the dense array
// without hashing, and the touched list, put in ascending order,
// yields the next frontier in CSR order.
//
// An Accum is not safe for concurrent use; check one out per
// goroutine (see AccumPool).
type Accum struct {
	dense []float64
	// seen has bit i%64 of word i/64 set iff index i is in touched.
	seen    []uint64
	touched []int32
	// top is Prune's reusable selection buffer.
	top []Entry
}

// NewAccum returns an accumulator over indices [0, n).
func NewAccum(n int) *Accum {
	return &Accum{dense: make([]float64, n), seen: make([]uint64, bitsetWords(n))}
}

// bitsetWords is the number of 64-bit words a bitset over [0, n) needs.
func bitsetWords(n int) int { return (n + 63) / 64 }

// Len returns the number of distinct indices touched since the last
// Reset.
func (a *Accum) Len() int { return len(a.touched) }

// Add accumulates x into index i.
func (a *Accum) Add(i int32, x float64) {
	w, bit := i>>6, uint64(1)<<(uint32(i)&63)
	if a.seen[w]&bit == 0 {
		a.seen[w] |= bit
		a.touched = append(a.touched, i)
	}
	a.dense[i] += x
}

// AddScaled accumulates c·d entry-wise.
func (a *Accum) AddScaled(d Dist, c float64) {
	if c == 0 {
		return
	}
	for k, i := range d.idx {
		a.Add(i, c*d.val[k])
	}
}

// AddMix accumulates Σ c_k · ds_k, skipping zero coefficients (a
// zero-weight meta-path must not enlarge the touched set).
func (a *Accum) AddMix(ds []Dist, cs []float64) {
	for k, d := range ds {
		a.AddScaled(d, cs[k])
	}
}

// Reset clears the accumulator in O(touched). Every set bit belongs
// to a touched index, so clearing each touched index's whole word
// clears the bitset.
func (a *Accum) Reset() {
	for _, i := range a.touched {
		a.dense[i] = 0
		a.seen[i>>6] = 0
	}
	a.touched = a.touched[:0]
}

// scanMinRatio is the crossover of order: the touched list is rebuilt
// from the bitset when it holds at least one index per scanMinRatio
// bitset words, and sorted otherwise. The scan costs a pass over every
// word plus one TrailingZeros64 per index; the sort costs O(t log t)
// compares. BenchmarkAccumOrder measured the two equal at 22–30
// indices over 161 words (10,282 objects, the default generated
// network) on a 2-vCPU x86-64 host: one index per 5–7 words.
const scanMinRatio = 6

// order puts the touched list in ascending index order. Both branches
// yield the same order, so every consumer is deterministic
// independent of the scatter order that built the accumulator: the
// walk kernel expands the next frontier in ascending index order, and
// frozen results list indices in CSR order.
func (a *Accum) order() {
	if len(a.touched)*scanMinRatio < len(a.seen) {
		slices.Sort(a.touched)
		return
	}
	a.scanTouched()
}

// scanTouched rebuilds the touched list in ascending order from the
// bitset, one word at a time.
func (a *Accum) scanTouched() {
	t := a.touched[:0]
	for w, word := range a.seen {
		for word != 0 {
			t = append(t, int32(w<<6|bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	a.touched = t
}

// Ordered puts the touched indices in ascending order and returns
// them with the dense value array, which holds each touched index's
// accumulated value. Entries that cancelled to exactly zero stay
// listed; callers skip them, as Dist does. Both slices are shared
// with the accumulator, must not be modified, and are valid until the
// next Add, Prune or Reset.
func (a *Accum) Ordered() (idx []int32, dense []float64) {
	a.order()
	return a.touched, a.dense
}

// Dist freezes the accumulated values into a new immutable Dist,
// dropping entries that cancelled to exactly zero (matching Vector's
// Add semantics, which delete them). The accumulator is left intact;
// call Reset to reuse it.
func (a *Accum) Dist() Dist {
	a.order()
	nz := 0
	for _, i := range a.touched {
		if a.dense[i] != 0 {
			nz++
		}
	}
	idx := make([]int32, 0, nz)
	val := make([]float64, 0, nz)
	for _, i := range a.touched {
		if x := a.dense[i]; x != 0 {
			idx = append(idx, i)
			val = append(val, x)
		}
	}
	return Dist{idx: idx, val: val}
}

// Prune keeps only the n largest non-zero entries in place, selected
// by Vector.Top's rule (descending value, ties broken by ascending
// index — a total order, so exactly n survive when more are
// non-zero), and clears every other touched index. The survivors keep
// their values. Prune(0) empties the accumulator, as Vector.Top(0)
// selects nothing. This is the support-pruning step of the walk
// kernel.
func (a *Accum) Prune(n int) {
	if n <= 0 {
		a.Reset()
		return
	}
	if len(a.touched) <= n {
		return
	}
	a.order()
	top := a.top[:0]
	for _, i := range a.touched {
		if x := a.dense[i]; x != 0 {
			top = append(top, Entry{Index: i, Value: x})
		}
	}
	a.top = top
	if len(top) <= n {
		return
	}
	slices.SortFunc(top, compareTopEntries)
	last := top[n-1]
	kept := a.touched[:0]
	for _, i := range a.touched {
		if x := a.dense[i]; x != 0 && compareTopEntries(Entry{Index: i, Value: x}, last) <= 0 {
			kept = append(kept, i)
			continue
		}
		a.dense[i] = 0
		a.seen[i>>6] &^= uint64(1) << (uint32(i) & 63)
	}
	a.touched = kept
}

// AccumPool is a sync.Pool of equally sized accumulators. Hot paths
// (walk hops, mixture builds) check an Accum out per operation instead
// of allocating an O(|V|) dense array each time.
type AccumPool struct {
	n    int
	pool sync.Pool
}

// NewAccumPool returns a pool of accumulators over indices [0, n).
func NewAccumPool(n int) *AccumPool {
	p := &AccumPool{n: n}
	p.pool.New = func() interface{} { return NewAccum(n) }
	return p
}

// Get checks out a reset accumulator.
func (p *AccumPool) Get() *Accum {
	return p.pool.Get().(*Accum)
}

// Put resets the accumulator and returns it to the pool.
func (p *AccumPool) Put(a *Accum) {
	if a == nil || len(a.dense) != p.n {
		return
	}
	a.Reset()
	p.pool.Put(a)
}
