package core

import (
	"errors"

	"clustermarket/internal/resource"
)

// Capped is the clock's price update function g(x, p) of Algorithm 1: the
// paper's preferred Equation (3), g = min(α·z⁺, δ·e), where e is the
// all-ones vector, so no price moves by more than δ per round. A MinStep
// floor guarantees progress when excess demand is tiny, so a clock with
// positive excess demand never takes a zero step. Section III.C.2
// discusses other choices; DESIGN.md, "The clock against the exact
// optimum", records the measurement that kept only this one.
//
// The zero Capped selects DefaultPolicy in a Config.
type Capped struct {
	Alpha, Delta float64
	// MinStep, which must be positive, is the smallest increment applied
	// to a pool with positive excess demand. It bounds the number of
	// rounds.
	MinStep float64
}

// StepInto writes g(z) ≥ 0 into dst, which has len(z). Every component
// is written (zero where z ≤ 0): dst is scratch and may hold a previous
// round's step on entry. Only pools with z > 0 move, each by its own
// z[i] alone, which is what lets the clock run a market's components as
// independent lanes.
//
//marketlint:allocfree
func (c Capped) StepInto(dst, z resource.Vector) {
	for i, zi := range z {
		if zi <= 0 {
			dst[i] = 0
			continue
		}
		s := c.Alpha * zi
		if s > c.Delta {
			s = c.Delta
		}
		if s < c.MinStep {
			s = c.MinStep
		}
		dst[i] = s
	}
}

// DefaultPolicy returns the step rule production and every experiment
// use: the paper's capped rule with a small floor for guaranteed progress.
func DefaultPolicy() Capped {
	return Capped{Alpha: 0.02, Delta: 0.25, MinStep: 0.001}
}

// validatePolicy rejects broken parameterizations early, NaN included. A
// validated Capped never writes a negative component.
func validatePolicy(c Capped) error {
	if !(c.Alpha > 0) || !(c.Delta > 0) {
		return errors.New("core: Capped.Alpha and Delta must be positive")
	}
	if !(c.MinStep > 0) || c.MinStep > c.Delta {
		return errors.New("core: Capped.MinStep must be in (0, Delta]")
	}
	return nil
}
