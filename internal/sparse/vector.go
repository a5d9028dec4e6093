// Package sparse provides sparse float64 vectors keyed by int32 object
// IDs. They are the arithmetic substrate for the meta-path constrained
// random walks and the EM learning math in SHINE: the distribution
// Pe(v|p) of observing each object v after walking meta-path p from an
// entity e touches only a tiny fraction of the network's objects, so a
// map-backed representation is both compact and fast to mix.
package sparse

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Vector is a sparse vector over int32 indices. Absent keys are zero.
// The zero value (nil map) is a usable empty vector for reading;
// writing requires construction via New or NewWithCapacity.
type Vector map[int32]float64

// New returns an empty vector.
func New() Vector { return make(Vector) }

// NewWithCapacity returns an empty vector with room for n entries.
func NewWithCapacity(n int) Vector { return make(Vector, n) }

// Unit returns the vector with a single entry of 1 at index i — the
// starting distribution of a random walk rooted at object i.
func Unit(i int32) Vector { return Vector{i: 1} }

// Get returns the value at index i (zero if absent).
func (v Vector) Get(i int32) float64 { return v[i] }

// Set assigns value x at index i. Setting zero deletes the entry so
// that Len always counts non-zeros.
func (v Vector) Set(i int32, x float64) {
	if x == 0 {
		delete(v, i)
		return
	}
	v[i] = x
}

// Add accumulates x into index i.
func (v Vector) Add(i int32, x float64) {
	nx := v[i] + x
	if nx == 0 {
		delete(v, i)
		return
	}
	v[i] = nx
}

// Len returns the number of stored (non-zero) entries.
func (v Vector) Len() int { return len(v) }

// Sum returns the sum of all entries.
func (v Vector) Sum() float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// Norm2 returns the L2 norm sqrt(Σx²).
func (v Vector) Norm2() float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of v and w, iterating over the smaller
// of the two.
func (v Vector) Dot(w Vector) float64 {
	if len(w) < len(v) {
		v, w = w, v
	}
	s := 0.0
	for i, x := range v {
		if y, ok := w[i]; ok {
			s += x * y
		}
	}
	return s
}

// Cosine returns the cosine similarity of v and w, or 0 if either has
// zero norm.
func (v Vector) Cosine(w Vector) float64 {
	nv, nw := v.Norm2(), w.Norm2()
	if nv == 0 || nw == 0 {
		return 0
	}
	return v.Dot(w) / (nv * nw)
}

// Scale multiplies every entry by c in place and returns v. Scaling by
// zero empties the vector.
func (v Vector) Scale(c float64) Vector {
	if c == 0 {
		for i := range v {
			delete(v, i)
		}
		return v
	}
	for i, x := range v {
		v[i] = x * c
	}
	return v
}

// AccumScaled adds c*w into v in place and returns v.
func (v Vector) AccumScaled(w Vector, c float64) Vector {
	if c == 0 {
		return v
	}
	for i, x := range w {
		v.Add(i, c*x)
	}
	return v
}

// Indices returns the stored indices in ascending order. Useful for
// deterministic iteration.
func (v Vector) Indices() []int32 {
	idx := make([]int32, 0, len(v))
	for i := range v {
		idx = append(idx, i)
	}
	slices.Sort(idx)
	return idx
}

// Top returns the n largest entries as (index, value) pairs in
// descending value order (ties broken by ascending index). If the
// vector has fewer than n entries, all are returned.
func (v Vector) Top(n int) []Entry {
	entries := make([]Entry, 0, len(v))
	for i, x := range v {
		entries = append(entries, Entry{Index: i, Value: x})
	}
	slices.SortFunc(entries, compareTopEntries)
	if len(entries) > n {
		entries = entries[:n]
	}
	return entries
}

// Entry is one (index, value) pair of a sparse vector.
type Entry struct {
	Index int32
	Value float64
}

// Equal reports whether v and w store the same entries to within tol.
func (v Vector) Equal(w Vector, tol float64) bool {
	for i, x := range v {
		if math.Abs(x-w[i]) > tol {
			return false
		}
	}
	for i, y := range w {
		if _, ok := v[i]; !ok && math.Abs(y) > tol {
			return false
		}
	}
	return true
}

// IsDistribution reports whether v is a probability distribution: all
// entries non-negative and summing to 1 within tol. An empty vector is
// not a distribution.
func (v Vector) IsDistribution(tol float64) bool {
	if len(v) == 0 {
		return false
	}
	for _, x := range v {
		if x < -tol {
			return false
		}
	}
	return math.Abs(v.Sum()-1) <= tol
}

// String renders up to 8 entries in index order, for debugging.
func (v Vector) String() string {
	idx := v.Indices()
	var b strings.Builder
	b.WriteString("{")
	for k, i := range idx {
		if k == 8 {
			fmt.Fprintf(&b, " …+%d", len(idx)-8)
			break
		}
		if k > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%d:%.4g", i, v[i])
	}
	b.WriteString("}")
	return b.String()
}
