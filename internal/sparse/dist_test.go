package sparse

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// randomDistVector builds a Vector with nz entries drawn from [0, n) with
// values in (-1, 1), occasionally cancelling an entry to exactly zero
// through Add (which deletes it) so frozen forms must match.
func randomDistVector(rng *rand.Rand, n, nz int) Vector {
	v := New()
	for j := 0; j < nz; j++ {
		i := int32(rng.Intn(n))
		x := rng.Float64()*2 - 1
		v.Add(i, x)
		if rng.Intn(8) == 0 {
			v.Add(i, -x) // exact cancellation: Add deletes the entry
		}
	}
	return v
}

// TestFreezeThawRoundTrip: Thaw(Freeze(v)) reproduces v bit-for-bit.
func TestFreezeThawRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		v := randomDistVector(rng, 200, rng.Intn(60))
		d := Freeze(v)
		back := d.Thaw()
		if len(back) != len(v) {
			t.Fatalf("trial %d: round trip has %d entries, want %d", trial, len(back), len(v))
		}
		for i, x := range v {
			if got := back[i]; got != x {
				t.Fatalf("trial %d: round trip [%d] = %v, want %v", trial, i, got, x)
			}
		}
	}
}

// TestFreezeDropsExactZeros: a literal Vector holding explicit zeros
// freezes to a Dist without them.
func TestFreezeDropsExactZeros(t *testing.T) {
	v := Vector{3: 0, 5: 0.25, 9: 0}
	d := Freeze(v)
	if d.Len() != 1 {
		t.Fatalf("frozen literal has %d entries, want 1", d.Len())
	}
	if idx, val := d.Raw(); idx[0] != 5 || val[0] != 0.25 {
		t.Fatalf("frozen entry = (%d, %v), want (5, 0.25)", idx[0], val[0])
	}
}

// TestDistGetMatchesVector: Get agrees with the map bit-for-bit, on
// present and absent indices alike.
func TestDistGetMatchesVector(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		v := randomDistVector(rng, 300, rng.Intn(80))
		d := Freeze(v)
		for probe := 0; probe < 100; probe++ {
			i := int32(rng.Intn(310))
			if got, want := d.Get(i), v.Get(i); got != want {
				t.Fatalf("trial %d: Get(%d) = %v, want %v", trial, i, got, want)
			}
		}
	}
}

// TestDistGetManyMatchesGet: the linear merge agrees with per-index
// binary search for ascending query sets with gaps and absent IDs.
func TestDistGetManyMatchesGet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		v := randomDistVector(rng, 300, rng.Intn(80))
		d := Freeze(v)
		nq := rng.Intn(50)
		sorted := make([]int32, 0, nq)
		next := int32(0)
		for j := 0; j < nq; j++ {
			next += int32(1 + rng.Intn(12))
			sorted = append(sorted, next)
		}
		out := make([]float64, len(sorted))
		d.GetMany(sorted, out)
		for j, i := range sorted {
			if want := d.Get(i); out[j] != want {
				t.Fatalf("trial %d: GetMany[%d]=%v, Get(%d)=%v", trial, j, out[j], i, want)
			}
		}
	}
}

// TestMixDistsMatchesMix: the CSR mixture is bit-for-bit identical to
// the map-backed mixture Σ c_k·v_k accumulated with AccumScaled in
// slice order — same per-index addition order, same dropped zeros.
func TestMixDistsMatchesMix(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(5)
		vs := make([]Vector, k)
		ds := make([]Dist, k)
		cs := make([]float64, k)
		for p := 0; p < k; p++ {
			vs[p] = randomDistVector(rng, 150, rng.Intn(40))
			ds[p] = Freeze(vs[p])
			cs[p] = rng.Float64()
			if rng.Intn(4) == 0 {
				cs[p] = 0 // zero-weight paths must not contribute
			}
		}
		want := New()
		for p := range vs {
			want.AccumScaled(vs[p], cs[p])
		}
		got := MixDists(ds, cs)
		if got.Len() != len(want) {
			t.Fatalf("trial %d: mixture has %d entries, want %d", trial, got.Len(), len(want))
		}
		gotIdx, gotVal := got.Raw()
		for k, i := range gotIdx {
			x := gotVal[k]
			if wx := want[i]; x != wx {
				t.Fatalf("trial %d: mixture[%d] = %v, want %v (bit-for-bit)", trial, i, x, wx)
			}
		}
	}
}

// TestAccumMatchesVectorAdds: scattering a random Add sequence through
// an Accum freezes to exactly what the same sequence builds in a map.
func TestAccumMatchesVectorAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		const n = 128
		acc := NewAccum(n)
		v := New()
		for j := 0; j < rng.Intn(200); j++ {
			i := int32(rng.Intn(n))
			x := rng.Float64()*2 - 1
			acc.Add(i, x)
			v.Add(i, x)
			if rng.Intn(10) == 0 {
				acc.Add(i, -acc.dense[i]) // cancel to exactly zero
				v.Add(i, -v[i])
			}
		}
		d := acc.Dist()
		if d.Len() != len(v) {
			t.Fatalf("trial %d: frozen accum has %d entries, want %d", trial, d.Len(), len(v))
		}
		dIdx, dVal := d.Raw()
		for k, i := range dIdx {
			x := dVal[k]
			if wx, ok := v[i]; !ok || x != wx {
				t.Fatalf("trial %d: accum[%d] = %v, map %v", trial, i, x, wx)
			}
		}
		// Reset must fully clear in O(touched).
		acc.Reset()
		if acc.Len() != 0 {
			t.Fatalf("trial %d: %d touched after Reset", trial, acc.Len())
		}
		for i := 0; i < n; i++ {
			if acc.dense[i] != 0 || acc.seen[i>>6]>>(i&63)&1 != 0 {
				t.Fatalf("trial %d: index %d dirty after Reset", trial, i)
			}
		}
	}
}

// TestAccumPruneMatchesVectorTop: the in-place prune keeps exactly
// the entries Vector.Top selects, with their values, lists them in
// ascending index order and clears the bits of everything it drops.
// Values repeat often, so the index tiebreak decides many cuts, and
// the support spans both sides of the sort/scan crossover.
func TestAccumPruneMatchesVectorTop(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n = 64 * 200
	acc := NewAccum(n)
	for trial := 0; trial < 200; trial++ {
		v := New()
		for j := 0; j < 5+rng.Intn(120); j++ {
			i := int32(rng.Intn(n))
			x := float64(1+rng.Intn(4)) / 8
			acc.Add(i, x)
			v.Add(i, x)
		}
		k := rng.Intn(12)
		want := v.Top(k)
		acc.Prune(k)
		if acc.Len() != len(want) {
			t.Fatalf("trial %d: Prune(%d) kept %d entries, want %d", trial, k, acc.Len(), len(want))
		}
		idx, dense := acc.Ordered()
		for j, i := range idx {
			if j > 0 && idx[j-1] >= i {
				t.Fatalf("trial %d: pruned indices not ascending: %d then %d", trial, idx[j-1], i)
			}
		}
		for _, e := range want {
			if x := dense[e.Index]; x != e.Value {
				t.Fatalf("trial %d: pruned[%d] = %v, want %v", trial, e.Index, x, e.Value)
			}
		}
		checkBitsetMatchesTouched(t, acc)
		acc.Reset()
		checkClean(t, acc)
	}
}

// TestAccumOrderedMatchesVector: on both sides of the sort/scan
// crossover, Ordered and Dist agree bit-for-bit with a Vector built by
// the same Add sequence, in ascending index order. The sequences hit
// the bitset's word boundaries (0, 63, 64, n−1), cancel entries to
// exactly zero and reuse the accumulator after Reset.
func TestAccumOrderedMatchesVector(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sorted, scanned := 0, 0
	for trial := 0; trial < 100; trial++ {
		n := 64*50 + rng.Intn(64) // 50 or 51 words: scans from 9 indices up
		acc := NewAccum(n)
		for round := 0; round < 3; round++ {
			v := New()
			add := func(limit int) {
				boundary := []int32{0, 63, 64, int32(limit - 1)}
				for j := 0; j < rng.Intn(40); j++ {
					i := int32(rng.Intn(limit))
					if rng.Intn(4) == 0 {
						i = boundary[rng.Intn(len(boundary))]
					}
					x := rng.Float64()*2 - 1
					acc.Add(i, x)
					v.Add(i, x)
					if rng.Intn(8) == 0 {
						acc.Add(i, -acc.dense[i]) // cancel to exactly zero
						v.Add(i, -v[i])
					}
				}
			}
			add(n)
			if acc.Len()*scanMinRatio < len(acc.seen) {
				sorted++
			} else {
				scanned++
			}
			touched := acc.Len()
			idx, dense := acc.Ordered()
			if len(idx) != touched {
				t.Fatalf("trial %d: Ordered lists %d indices, %d touched", trial, len(idx), touched)
			}
			var got []Entry
			for j, i := range idx {
				if j > 0 && idx[j-1] >= i {
					t.Fatalf("trial %d: indices not ascending: %d then %d", trial, idx[j-1], i)
				}
				if x := dense[i]; x != 0 {
					got = append(got, Entry{Index: i, Value: x})
				}
			}
			wantIdx := v.Indices()
			if len(got) != len(wantIdx) {
				t.Fatalf("trial %d: %d non-zero entries, want %d", trial, len(got), len(wantIdx))
			}
			d := acc.Dist()
			if d.Len() != len(wantIdx) {
				t.Fatalf("trial %d: Dist has %d entries, want %d", trial, d.Len(), len(wantIdx))
			}
			dIdx, dVal := d.Raw()
			for j, i := range wantIdx {
				di, dx := dIdx[j], dVal[j]
				if got[j].Index != i || got[j].Value != v[i] || di != i || dx != v[i] {
					t.Fatalf("trial %d: entry %d = %+v, Dist (%d, %v), want (%d, %v)",
						trial, j, got[j], di, dx, i, v[i])
				}
			}
			checkBitsetMatchesTouched(t, acc)
			acc.Reset()
			checkClean(t, acc)
		}
	}
	if sorted == 0 || scanned == 0 {
		t.Fatalf("crossover not straddled: %d sorted, %d scanned", sorted, scanned)
	}
}

// checkBitsetMatchesTouched: the bitset holds exactly the touched
// indices.
func checkBitsetMatchesTouched(t *testing.T, a *Accum) {
	t.Helper()
	bitsSet := 0
	for _, w := range a.seen {
		bitsSet += bits.OnesCount64(w)
	}
	if bitsSet != a.Len() {
		t.Fatalf("%d bits set for %d touched indices", bitsSet, a.Len())
	}
	for _, i := range a.touched {
		if a.seen[i>>6]>>(i&63)&1 == 0 {
			t.Fatalf("touched index %d has no bit", i)
		}
	}
}

// checkClean: after Reset no value, bit or touched index remains.
func checkClean(t *testing.T, a *Accum) {
	t.Helper()
	if a.Len() != 0 {
		t.Fatalf("%d touched after Reset", a.Len())
	}
	for w, word := range a.seen {
		if word != 0 {
			t.Fatalf("bitset word %d dirty after Reset: %#x", w, word)
		}
	}
	for i, x := range a.dense {
		if x != 0 {
			t.Fatalf("index %d dirty after Reset: %v", i, x)
		}
	}
}

// TestAccumPool: checked-out accumulators are always clean, and a
// wrong-size accumulator is rejected rather than poisoning the pool.
func TestAccumPool(t *testing.T) {
	p := NewAccumPool(64)
	a := p.Get()
	if len(a.dense) != 64 || a.Len() != 0 {
		t.Fatalf("fresh accum: size %d touched %d", len(a.dense), a.Len())
	}
	a.Add(7, 1.5)
	p.Put(a)
	b := p.Get()
	if b.Len() != 0 || b.dense[7] != 0 {
		t.Fatal("pooled accum returned dirty")
	}
	p.Put(NewAccum(8)) // wrong size: must be dropped
	c := p.Get()
	if len(c.dense) != 64 {
		t.Fatalf("pool handed out wrong-size accum (%d)", len(c.dense))
	}
	p.Put(nil) // must not panic
}

// TestUnitDistMatchesUnit and basic invariants of the tiny helpers.
func TestUnitDistMatchesUnit(t *testing.T) {
	d := UnitDist(42)
	if !d.Equal(Freeze(Unit(42)), 0) {
		t.Error("UnitDist(42) != Freeze(Unit(42))")
	}
	if !d.IsDistribution(0) {
		t.Error("UnitDist not a distribution")
	}
	if (Dist{}).IsDistribution(1e-9) {
		t.Error("empty Dist is a distribution")
	}
	if s := d.Sum(); s != 1 {
		t.Errorf("UnitDist sum %v", s)
	}
}

// BenchmarkAccumOrder times both branches of order on the same
// shuffled touched lists: uniformly spread indices over 10,282 objects
// (161 bitset words), the size of the default generated network. The
// crossover where the two cost the same sets scanMinRatio.
func BenchmarkAccumOrder(b *testing.B) {
	const n = 10282
	for _, touched := range []int{10, 20, 40, 80} {
		rng := rand.New(rand.NewSource(int64(touched)))
		a := NewAccum(n)
		for a.Len() < touched {
			a.Add(int32(rng.Intn(n)), 1)
		}
		shuffled := slices.Clone(a.touched)
		b.Run(fmt.Sprintf("touched=%d/sort", touched), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(a.touched, shuffled)
				slices.Sort(a.touched)
			}
		})
		b.Run(fmt.Sprintf("touched=%d/scan", touched), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(a.touched, shuffled)
				a.scanTouched()
			}
		})
	}
}
