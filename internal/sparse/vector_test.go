package sparse

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSetGetAddDeleteZeros(t *testing.T) {
	v := New()
	v.Set(3, 1.5)
	if got := v.Get(3); got != 1.5 {
		t.Errorf("Get(3) = %v, want 1.5", got)
	}
	if got := v.Get(99); got != 0 {
		t.Errorf("Get(99) = %v, want 0", got)
	}
	v.Add(3, -1.5)
	if v.Len() != 0 {
		t.Errorf("entry cancelled to zero not deleted: Len = %d", v.Len())
	}
	v.Set(7, 2)
	v.Set(7, 0)
	if v.Len() != 0 {
		t.Errorf("Set(i, 0) not deleted: Len = %d", v.Len())
	}
}

func TestUnit(t *testing.T) {
	u := Unit(42)
	if u.Len() != 1 || u.Get(42) != 1 {
		t.Errorf("Unit(42) = %v", u)
	}
	if !u.IsDistribution(1e-12) {
		t.Error("Unit vector is not a distribution")
	}
}

func TestSumAndNorms(t *testing.T) {
	v := Vector{1: 3, 2: -4}
	if got := v.Sum(); got != -1 {
		t.Errorf("Sum = %v, want -1", got)
	}
	if got := v.Norm2(); got != 5 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
}

func TestDotAndCosine(t *testing.T) {
	v := Vector{1: 1, 2: 2, 5: 3}
	w := Vector{2: 4, 5: -1, 9: 10}
	want := 2.0*4 + 3.0*(-1)
	if got := v.Dot(w); got != want {
		t.Errorf("Dot = %v, want %v", got, want)
	}
	if got, wantAgain := w.Dot(v), want; got != wantAgain {
		t.Errorf("Dot not symmetric: %v vs %v", got, wantAgain)
	}
	if got := v.Cosine(New()); got != 0 {
		t.Errorf("Cosine with empty = %v, want 0", got)
	}
	if got := v.Cosine(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("Cosine(v, v) = %v, want 1", got)
	}
}

func TestScale(t *testing.T) {
	v := Vector{1: 2, 2: -3}
	v.Scale(2)
	if v.Get(1) != 4 || v.Get(2) != -6 {
		t.Errorf("Scale(2) = %v", v)
	}
	v.Scale(0)
	if v.Len() != 0 {
		t.Errorf("Scale(0) left entries: %v", v)
	}
}

func TestAccumScaled(t *testing.T) {
	v := Vector{1: 1}
	w := Vector{1: 2, 3: 4}
	v.AccumScaled(w, 0.5)
	if v.Get(1) != 2 || v.Get(3) != 2 {
		t.Errorf("AccumScaled = %v", v)
	}
	before := Vector{1: 2, 3: 2}
	v.AccumScaled(w, 0)
	if !v.Equal(before, 0) {
		t.Errorf("AccumScaled with 0 changed the vector")
	}
}

func TestMix(t *testing.T) {
	a := Freeze(Vector{1: 1})
	b := Freeze(Vector{1: 1, 2: 1})
	m := MixDists([]Dist{a, b}, []float64{0.25, 0.75})
	if math.Abs(m.Get(1)-1) > 1e-12 || math.Abs(m.Get(2)-0.75) > 1e-12 {
		t.Errorf("MixDists = %v", m)
	}
}

func TestMixPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MixDists with mismatched lengths did not panic")
		}
	}()
	MixDists([]Dist{{}}, []float64{1, 2})
}

func TestIndicesSorted(t *testing.T) {
	v := Vector{5: 1, 1: 1, 3: 1}
	idx := v.Indices()
	if len(idx) != 3 || idx[0] != 1 || idx[1] != 3 || idx[2] != 5 {
		t.Errorf("Indices = %v", idx)
	}
}

func TestTop(t *testing.T) {
	v := Vector{1: 0.1, 2: 0.5, 3: 0.3, 4: 0.5}
	top := v.Top(3)
	if len(top) != 3 {
		t.Fatalf("Top(3) returned %d entries", len(top))
	}
	// Ties (2 and 4 at 0.5) broken by ascending index.
	if top[0].Index != 2 || top[1].Index != 4 || top[2].Index != 3 {
		t.Errorf("Top order = %v", top)
	}
	if got := v.Top(10); len(got) != 4 {
		t.Errorf("Top(10) returned %d entries, want all 4", len(got))
	}
}

func TestEqual(t *testing.T) {
	v := Vector{1: 1.0}
	w := Vector{1: 1.0 + 1e-12}
	if !v.Equal(w, 1e-9) {
		t.Error("nearly equal vectors not Equal")
	}
	if v.Equal(Vector{1: 2}, 1e-9) {
		t.Error("different vectors Equal")
	}
	if v.Equal(Vector{1: 1, 2: 5}, 1e-9) {
		t.Error("vector with extra entry Equal")
	}
	if !v.Equal(Vector{1: 1, 2: 1e-15}, 1e-9) {
		t.Error("vector with negligible extra entry not Equal")
	}
}

func TestIsDistribution(t *testing.T) {
	if (Vector{}).IsDistribution(1e-9) {
		t.Error("empty vector reported as distribution")
	}
	if !(Vector{1: 0.5, 2: 0.5}).IsDistribution(1e-9) {
		t.Error("valid distribution rejected")
	}
	if (Vector{1: 1.5, 2: -0.5}).IsDistribution(1e-9) {
		t.Error("negative-entry vector accepted")
	}
	if (Vector{1: 0.7}).IsDistribution(1e-9) {
		t.Error("non-normalised vector accepted")
	}
}

func TestString(t *testing.T) {
	v := Vector{1: 0.5}
	if s := v.String(); !strings.Contains(s, "1:0.5") {
		t.Errorf("String = %q", s)
	}
	big := New()
	for i := int32(0); i < 20; i++ {
		big.Set(i, 1)
	}
	if s := big.String(); !strings.Contains(s, "…+12") {
		t.Errorf("String of big vector = %q", s)
	}
}

// randomVector builds a vector with n random entries for property
// tests.
func randomVector(r *rand.Rand, n int) Vector {
	v := New()
	for k := 0; k < n; k++ {
		v.Set(int32(r.Intn(100)), r.Float64()*10-5)
	}
	return v
}

func TestQuickDotSymmetricAndCauchySchwarz(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomVector(r, 10)
		w := randomVector(r, 10)
		d1, d2 := v.Dot(w), w.Dot(v)
		if math.Abs(d1-d2) > 1e-9 {
			return false
		}
		return math.Abs(d1) <= v.Norm2()*w.Norm2()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMixOfDistributionsIsDistribution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ds := make([]Dist, 3)
		for k := range ds {
			v := randomVector(r, 8)
			for i, x := range v {
				v[i] = math.Abs(x) + 0.001
			}
			ds[k] = Freeze(v.Scale(1 / v.Sum()))
		}
		// Random convex coefficients.
		cs := []float64{r.Float64(), r.Float64(), r.Float64()}
		sum := cs[0] + cs[1] + cs[2]
		for k := range cs {
			cs[k] /= sum
		}
		return MixDists(ds, cs).IsDistribution(1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
