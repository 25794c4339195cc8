// Package fixture exercises every allocating construct allocfree
// flags and the amortized-growth idioms it must keep accepting.
package fixture

import (
	"fmt"
	"sync/atomic"
)

type gauge struct {
	n     atomic.Int64
	items []int
}

// Atomics and growth under a len/cap guard are the blessed idioms.
//
//marketlint:allocfree
func (g *gauge) bump(v int) {
	g.n.Add(1)
	if len(g.items) < cap(g.items) {
		g.items = append(g.items, v)
	}
}

// fmt boxes and allocates its argument pack.
//
//marketlint:allocfree
func report(region string) string {
	msg := fmt.Sprintf("region %s", region) // want "calls fmt.Sprintf" "boxes a string"
	msg += region                           // want "concatenates strings"
	return msg
}

// Unguarded growth: both the make and the growing append are findings.
//
//marketlint:allocfree
func gather(n int) []int {
	out := make([]int, 0, n) // want "calls make outside a len/cap growth guard"
	for i := 0; i < n; i++ {
		out = append(out, i) // want "append may grow its backing array"
	}
	return out
}

// Caller-owned scratch growth (the settle idiom): `dst` is rooted in a
// parameter, so growth lands in the caller's amortized buffer.
//
//marketlint:allocfree
func push(dst []int, v int) []int {
	dst = append(dst, v)
	return dst
}

func helper(x int) int { return x * 2 }

// Same-package callees must carry the annotation themselves.
//
//marketlint:allocfree
func fused(x int) int {
	return helper(x) // want "calls helper, which is not"
}

//marketlint:allocfree
func double(x int) int { return x + x }

// Annotated callees chain without findings.
//
//marketlint:allocfree
func quadruple(x int) int {
	return double(double(x))
}

func flush() {}

//marketlint:allocfree
func accumulate(vals []int) int {
	total := 0
	add := func(v int) { total += v } // want "a closure captures total"
	for _, v := range vals {
		add(v) // want "calls through a function value"
	}
	go flush() // want "spawns a goroutine"
	return total
}

//marketlint:allocfree
func stash(id int64) {
	var v any
	v = id // want "boxes a int64 into an interface"
	_ = v
}

//marketlint:allocfree
func raw(s string) []byte {
	return []byte(s) // want "converts between string and byte/rune slice"
}

//marketlint:allocfree
func index(region string, id int) map[string]int {
	return map[string]int{region: id} // want "builds a map literal"
}

// A deliberate one-time allocation rides on an allow annotation.
//
//marketlint:allocfree
func grow(n int) []int {
	//marketlint:allow allocfree one-time scratch build, amortized across calls
	buf := make([]int, n)
	return buf
}

// A generic type's annotated method is called through an instantiation:
// the annotation on the declaration it originates from must carry.
type ring[T any] struct{ buf []T }

// at returns slot i.
//
//marketlint:allocfree
func (r *ring[T]) at(i int) T { return r.buf[i%len(r.buf)] }

func (r *ring[T]) sorted() []T { return append([]T(nil), r.buf...) }

// ringSum reads a ring in place.
//
//marketlint:allocfree
func ringSum(r *ring[int]) int {
	return r.at(0) + r.at(1) + len(r.sorted()) // want "calls sorted, which is not"
}

// Unannotated functions may allocate freely.
func coldPath(n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, fmt.Sprintf("item %d", i))
	}
	return out
}

var _ = []any{gauge{},
	report, gather, push, fused, quadruple, accumulate, stash, raw, index, grow, coldPath, ringSum}
