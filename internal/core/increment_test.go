package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"clustermarket/internal/resource"
)

// step allocates a fresh vector and applies c.StepInto.
func step(c Capped, z resource.Vector) resource.Vector {
	dst := make(resource.Vector, len(z))
	c.StepInto(dst, z)
	return dst
}

func TestCappedStep(t *testing.T) {
	p := Capped{Alpha: 0.1, Delta: 0.5, MinStep: 0.05}
	z := resource.Vector{100, 1, 0.1, -3}
	got := step(p, z)
	// 100·0.1=10 capped at 0.5; 1·0.1=0.1; 0.1·0.1=0.01 floored to 0.05;
	// negative excess leaves the price alone.
	want := resource.Vector{0.5, 0.1, 0.05, 0}
	if !slices.EqualFunc(got, want, func(a, b float64) bool { return math.Abs(a-b) <= 1e-12 }) {
		t.Errorf("Step = %v, want %v", got, want)
	}
}

func TestValidatePolicy(t *testing.T) {
	bad := []Capped{
		{Alpha: 0, Delta: 1},
		{Alpha: 1, Delta: 0},
		{Alpha: 1, Delta: 1, MinStep: 2},
		{Alpha: 1, Delta: 1, MinStep: -1},
		{Alpha: math.NaN(), Delta: 1},
		{Alpha: 1, Delta: 1, MinStep: math.NaN()},
		// MinStep 0: a step could be zero against positive excess demand.
		{Alpha: 1, Delta: 1},
		// The smallest denormal α, so against under half a unit of
		// excess demand α·z would round to a zero step.
		{Alpha: 5e-324, Delta: 1},
	}
	for i, p := range bad {
		if err := validatePolicy(p); err == nil {
			t.Errorf("case %d (%v): accepted", i, p)
		}
	}
	good := []Capped{
		{Alpha: 0.1, Delta: 1, MinStep: 0.5},
		DefaultPolicy(),
	}
	for i, p := range good {
		if err := validatePolicy(p); err != nil {
			t.Errorf("case %d: rejected: %v", i, err)
		}
	}
}

// TestQuickPolicyStepsNonNegativeAndTargeted: the step must be
// nonnegative and move exactly the pools with positive excess demand.
func TestQuickPolicyStepsNonNegativeAndTargeted(t *testing.T) {
	pol := Capped{Alpha: 0.3, Delta: 0.7, MinStep: 0.01}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		z := make(resource.Vector, 4)
		for i := range z {
			z[i] = rng.Float64()*40 - 20
		}
		s := step(pol, z)
		if !s.AllNonNegative(0) {
			return false
		}
		for i := range s {
			if s[i] > 0 && z[i] <= 0 {
				return false
			}
			if z[i] > 0 && s[i] == 0 {
				return false // positive excess demand must move
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestStepIntoOverwritesScratch pins the StepInto contract: dst is
// scratch that may carry a previous round's step, and the step must
// overwrite every component — a stale positive entry left behind for a
// pool with nonpositive excess demand would move a price that must not
// move.
func TestStepIntoOverwritesScratch(t *testing.T) {
	pol := Capped{Alpha: 0.3, Delta: 0.7, MinStep: 0.01}
	z := resource.Vector{5, -5, 0}
	dst := resource.Vector{99, 99, 99} // poisoned scratch
	pol.StepInto(dst, z)
	if want := step(pol, z); !slices.Equal(dst, want) {
		t.Errorf("StepInto over poisoned scratch = %v, want %v", dst, want)
	}
	if dst[1] != 0 || dst[2] != 0 {
		t.Errorf("stale scratch survived for nonpositive z: %v", dst)
	}
}
