package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"clustermarket/internal/resource"
)

func TestSparseBundlePacking(t *testing.T) {
	q := resource.Vector{0, 3, 0, -2, 0}
	rw := packRows([]resource.Vector{q})
	s := rw.bundle(0)
	if len(s.idx) != 2 || s.idx[0] != 1 || s.idx[1] != 3 {
		t.Fatalf("idx = %v", s.idx)
	}
	if s.val[0] != 3 || s.val[1] != -2 {
		t.Fatalf("val = %v", s.val)
	}
	p := resource.Vector{10, 20, 30, 40, 50}
	if got, want := s.dot(p), q.Dot(p); got != want {
		t.Errorf("dot = %v, want %v", got, want)
	}
	z := make(resource.Vector, 5)
	s.addInto(z)
	if !slices.Equal(z, q) {
		t.Errorf("addInto = %v", z)
	}
}

func TestSparseEmptyBundle(t *testing.T) {
	rw := packRows([]resource.Vector{{0, 0}})
	s := rw.bundle(0)
	if len(s.idx) != 0 {
		t.Fatalf("idx = %v", s.idx)
	}
	if got := s.dot(resource.Vector{5, 5}); got != 0 {
		t.Errorf("dot = %v", got)
	}
}

// TestQuickSparseMatchesDense: the sparse fast path must agree exactly
// with the dense implementation for dot products, accumulation, and the
// proxy's bundle choice.
func TestQuickSparseMatchesDense(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := rng.Intn(12) + 1
		q := make(resource.Vector, r)
		p := make(resource.Vector, r)
		for i := range q {
			if rng.Intn(2) == 0 {
				q[i] = float64(rng.Intn(21) - 10)
			}
			p[i] = rng.Float64() * 5
		}
		rw := packRows([]resource.Vector{q})
		s := rw.bundle(0)
		if d1, d2 := s.dot(p), q.Dot(p); d1 != d2 {
			return false
		}
		z1 := make(resource.Vector, r)
		s.addInto(z1)
		if !slices.Equal(z1, q) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
