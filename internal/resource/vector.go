package resource

import (
	"fmt"
	"math"
)

// Vector is an R-component quantity vector over the pools of a Registry.
// Positive components encode quantities demanded, negative components
// quantities offered, matching the bundle encoding of Section II.
type Vector []float64

// NewVector returns a zero vector of length r.
func NewVector(r int) Vector { return make(Vector, r) }

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// CopyFrom resizes v to len(src), copies src into it, and returns the
// result, reusing v's backing array whenever capacity allows. It is the
// allocation-free form of src.Clone() used by the clock's scratch
// buffers; calling it on a nil vector behaves exactly like Clone.
//
//marketlint:allocfree
func (v Vector) CopyFrom(src Vector) Vector {
	if cap(v) < len(src) {
		v = make(Vector, len(src))
	}
	v = v[:len(src)]
	copy(v, src)
	return v
}

// Resize returns v with length n, reusing the backing array when
// capacity allows. The contents are unspecified — callers must
// overwrite every component (scratch buffers on the auction hot path).
//
//marketlint:allocfree
func (v Vector) Resize(n int) Vector {
	if cap(v) < n {
		return make(Vector, n)
	}
	return v[:n]
}

// SetZero clears every component in place, the reuse form of
// Registry.Zero for scratch vectors on the auction hot path.
//
//marketlint:allocfree
func (v Vector) SetZero() {
	for i := range v {
		v[i] = 0
	}
}

// Add returns v + w. The vectors must have equal length.
func (v Vector) Add(w Vector) Vector {
	mustSameLen(v, w)
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// AddInto accumulates w into v in place, avoiding an allocation. It is the
// hot path of excess-demand computation in the clock auction.
//
//marketlint:allocfree
func (v Vector) AddInto(w Vector) {
	mustSameLen(v, w)
	for i := range v {
		v[i] += w[i]
	}
}

// Sub returns v − w.
func (v Vector) Sub(w Vector) Vector {
	mustSameLen(v, w)
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Scale returns k·v.
func (v Vector) Scale(k float64) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = k * v[i]
	}
	return out
}

// Neg returns −v.
func (v Vector) Neg() Vector { return v.Scale(-1) }

// Dot returns the inner product vᵀw. For a bundle q and price vector p,
// q.Dot(p) is the payment due (negative when the bundle is a net offer).
func (v Vector) Dot(w Vector) float64 {
	mustSameLen(v, w)
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// PositivePart returns max(v, 0) taken componentwise — the z⁺ operation in
// the paper's price-update rule.
func (v Vector) PositivePart() Vector {
	out := make(Vector, len(v))
	for i := range v {
		if v[i] > 0 {
			out[i] = v[i]
		}
	}
	return out
}

// NegativePart returns min(v, 0) taken componentwise.
func (v Vector) NegativePart() Vector {
	out := make(Vector, len(v))
	for i := range v {
		if v[i] < 0 {
			out[i] = v[i]
		}
	}
	return out
}

// AllNonPositive reports whether every component is ≤ eps. With eps = 0 it
// is the auction stopping test z(t) ≤ 0.
//
//marketlint:allocfree
func (v Vector) AllNonPositive(eps float64) bool {
	for _, x := range v {
		if x > eps {
			return false
		}
	}
	return true
}

// AllNonNegative reports whether every component is ≥ −eps (used for the
// price constraint p ≥ 0).
func (v Vector) AllNonNegative(eps float64) bool {
	for _, x := range v {
		if x < -eps {
			return false
		}
	}
	return true
}

// IsZero reports whether every component is exactly zero.
func (v Vector) IsZero() bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// MaxAbs returns the largest absolute component value (L∞ norm).
//
//marketlint:allocfree
func (v Vector) MaxAbs() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Sum returns the sum of all components.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Min returns the componentwise minimum of v and w.
func (v Vector) Min(w Vector) Vector {
	mustSameLen(v, w)
	out := make(Vector, len(v))
	for i := range v {
		out[i] = math.Min(v[i], w[i])
	}
	return out
}

// Max returns the componentwise maximum of v and w.
func (v Vector) Max(w Vector) Vector {
	mustSameLen(v, w)
	out := make(Vector, len(v))
	for i := range v {
		out[i] = math.Max(v[i], w[i])
	}
	return out
}

// Equal reports whether v and w agree componentwise within tolerance eps.
func (v Vector) Equal(w Vector, eps float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > eps {
			return false
		}
	}
	return true
}

// PureDirection classifies a bundle per Section III.C.3: +1 when all
// components are ≥ 0 (pure demand), −1 when all are ≤ 0 (pure offer), and 0
// for a mixed "trader" bundle. The zero vector classifies as pure demand.
func (v Vector) PureDirection() int {
	pos, neg := false, false
	for _, x := range v {
		if x > 0 {
			pos = true
		}
		if x < 0 {
			neg = true
		}
	}
	switch {
	case pos && neg:
		return 0
	case neg:
		return -1
	default:
		return +1
	}
}

// Validate reports an error when the vector contains NaN or infinite
// components, which would silently corrupt auction arithmetic.
func (v Vector) Validate() error {
	for i, x := range v {
		if math.IsNaN(x) {
			return fmt.Errorf("resource: component %d is NaN", i)
		}
		if math.IsInf(x, 0) {
			return fmt.Errorf("resource: component %d is infinite", i)
		}
	}
	return nil
}

// mustSameLen panics unless v and w have equal length.
//
//marketlint:allocfree
func mustSameLen(v, w Vector) {
	if len(v) != len(w) {
		//marketlint:allow allocfree the message is built only on the way to a panic
		panic(fmt.Sprintf("resource: vector length mismatch %d vs %d", len(v), len(w)))
	}
}
