package resource

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVectorArithmetic(t *testing.T) {
	v := Vector{1, -2, 3}
	w := Vector{4, 5, -6}

	if got := v.Add(w); !got.Equal(Vector{5, 3, -3}, 0) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); !got.Equal(Vector{-3, -7, 9}, 0) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(2); !got.Equal(Vector{2, -4, 6}, 0) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Neg(); !got.Equal(Vector{-1, 2, -3}, 0) {
		t.Errorf("Neg = %v", got)
	}
	if got := v.Dot(w); got != 1*4+(-2)*5+3*(-6) {
		t.Errorf("Dot = %v", got)
	}
	if got := v.Sum(); got != 2 {
		t.Errorf("Sum = %v", got)
	}
}

func TestVectorAddInto(t *testing.T) {
	v := Vector{1, 2}
	v.AddInto(Vector{10, -1})
	if !v.Equal(Vector{11, 1}, 0) {
		t.Errorf("AddInto = %v", v)
	}
}

func TestVectorParts(t *testing.T) {
	v := Vector{3, -4, 0, 5}
	if got := v.PositivePart(); !got.Equal(Vector{3, 0, 0, 5}, 0) {
		t.Errorf("PositivePart = %v", got)
	}
	if got := v.NegativePart(); !got.Equal(Vector{0, -4, 0, 0}, 0) {
		t.Errorf("NegativePart = %v", got)
	}
	// v = v⁺ + v⁻ must always hold.
	if got := v.PositivePart().Add(v.NegativePart()); !got.Equal(v, 0) {
		t.Errorf("parts do not reassemble: %v", got)
	}
}

func TestVectorPredicates(t *testing.T) {
	if !(Vector{-1, 0, -0.5}).AllNonPositive(0) {
		t.Error("AllNonPositive false negative")
	}
	if (Vector{-1, 0.1}).AllNonPositive(0) {
		t.Error("AllNonPositive false positive")
	}
	if !(Vector{-1, 0.1}).AllNonPositive(0.2) {
		t.Error("AllNonPositive ignores eps")
	}
	if !(Vector{0, 2}).AllNonNegative(0) {
		t.Error("AllNonNegative false negative")
	}
	if (Vector{-0.1, 2}).AllNonNegative(0) {
		t.Error("AllNonNegative false positive")
	}
	if !(Vector{0, 0}).IsZero() || (Vector{0, 1e-12}).IsZero() {
		t.Error("IsZero wrong")
	}
}

func TestPureDirection(t *testing.T) {
	cases := []struct {
		v    Vector
		want int
	}{
		{Vector{1, 0, 2}, +1},
		{Vector{0, 0}, +1},
		{Vector{-1, 0}, -1},
		{Vector{-1, 2}, 0},
	}
	for _, c := range cases {
		if got := c.v.PureDirection(); got != c.want {
			t.Errorf("PureDirection(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestVectorValidate(t *testing.T) {
	if err := (Vector{1, -2}).Validate(); err != nil {
		t.Errorf("Validate(finite) = %v", err)
	}
	if err := (Vector{math.NaN()}).Validate(); err == nil {
		t.Error("Validate missed NaN")
	}
	if err := (Vector{math.Inf(1)}).Validate(); err == nil {
		t.Error("Validate missed +Inf")
	}
}

func TestVectorLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	Vector{1}.Add(Vector{1, 2})
}

func TestVectorEqualDifferentLengths(t *testing.T) {
	if (Vector{1}).Equal(Vector{1, 0}, 0) {
		t.Error("Equal across lengths must be false")
	}
}

func TestVectorEqualRefusesNaN(t *testing.T) {
	if (Vector{1, math.NaN()}).Equal(Vector{1, math.NaN()}, 1) {
		t.Error("a NaN component must make Equal false")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	v := Vector{1, 2}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

// randomVector generates bounded random vectors for property tests.
func randomVector(r *rand.Rand, n int) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = math.Round(r.Float64()*200-100) / 4
	}
	return v
}

func TestQuickVectorAlgebraProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}

	// Commutativity of Add and Dot; distributivity of Scale over Add.
	prop := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		m := int(n%16) + 1
		v, w := randomVector(r, m), randomVector(r, m)
		k := math.Round(r.Float64()*8-4) / 2

		if !v.Add(w).Equal(w.Add(v), 1e-9) {
			return false
		}
		if math.Abs(v.Dot(w)-w.Dot(v)) > 1e-9 {
			return false
		}
		lhs := v.Add(w).Scale(k)
		rhs := v.Scale(k).Add(w.Scale(k))
		return lhs.Equal(rhs, 1e-9)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickPositivePartProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	prop := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		m := int(n%16) + 1
		v := randomVector(r, m)
		pp := v.PositivePart()
		// pp ≥ 0, pp ≥ v, and pp + v⁻ = v.
		if !pp.AllNonNegative(0) {
			return false
		}
		for i := range v {
			if pp[i] < v[i] {
				return false
			}
		}
		return pp.Add(v.NegativePart()).Equal(v, 1e-12)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickSubThenAddRoundTrip(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		m := int(n%16) + 1
		v, w := randomVector(r, m), randomVector(r, m)
		return v.Sub(w).Add(w).Equal(v, 1e-9)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Equal reports whether v and w agree componentwise within tolerance eps.
func (v Vector) Equal(w Vector, eps float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if !(math.Abs(v[i]-w[i]) <= eps) { // a NaN component is unequal
			return false
		}
	}
	return true
}
