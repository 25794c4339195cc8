package market

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"clustermarket/internal/core"
	"clustermarket/internal/resource"
)

// fuzzBid builds a booked bid from fuzz bytes, one bundle at a time, up to
// 64 bundles. A control byte c starts a bundle: with c&8 it repeats the
// previous bundle's quantities at its pools shifted by the next byte —
// SubmitProduct's N-cluster shape, which the run keeps as a "same" bit —
// and otherwise it has c&7 rows of two bytes of pool (signed) and eight
// of quantity bits. width ≥ 0 packs the (pool, quantity) pairs as
// PackSparse does; width < 0 packs dense vectors of unequal length (pool
// mod 16 in a vector of 16 + c>>4 components), as Pack does, so the
// bundles' widths follow the ends. With vec, bundle limits follow from
// whatever bytes are left.
func fuzzBid(width int32, vec bool, raw []byte) *core.Bid {
	take := func(k int) []byte {
		if len(raw) < k {
			return nil
		}
		p := raw[:k]
		raw = raw[k:]
		return p
	}
	var ends, lens []int
	var pools []int32
	var qty []float64
	for len(ends) < 64 {
		c := take(1)
		if c == nil {
			break
		}
		lo := len(pools)
		if prev := len(ends); c[0]&8 != 0 && prev > 0 {
			off := take(1)
			if off == nil {
				break
			}
			from := 0
			if prev > 1 {
				from = ends[prev-2]
			}
			for k := from; k < ends[prev-1]; k++ {
				pools, qty = append(pools, pools[k]+int32(off[0])), append(qty, qty[k])
			}
		} else {
			for k := 0; k < int(c[0]&7); k++ {
				p, q := take(2), take(8)
				if q == nil {
					break
				}
				pools = append(pools, int32(int16(binary.LittleEndian.Uint16(p))))
				qty = append(qty, math.Float64frombits(binary.LittleEndian.Uint64(q)))
			}
		}
		if width < 0 { // distinct pools below 16 in this dense bundle
			seen := map[int32]bool{}
			kept := lo
			for k := lo; k < len(pools); k++ {
				if p := pools[k] & 15; !seen[p] {
					seen[p] = true
					pools[kept], qty[kept] = p, qty[k]
					kept++
				}
			}
			pools, qty = pools[:kept], qty[:kept]
		}
		ends = append(ends, len(pools))
		lens = append(lens, 16+int(c[0]>>4))
	}
	b := &core.Bid{User: "fuzz", Limit: -7}
	if width >= 0 {
		b.PackSparse(int(width), ends, pools, qty)
	} else {
		lo := 0
		for i, hi := range ends {
			v := make(resource.Vector, lens[i])
			for k := lo; k < hi; k++ {
				v[pools[k]] = qty[k]
			}
			b.Bundles = append(b.Bundles, v)
			lo = hi
		}
		b.Pack()
	}
	if vec && len(ends) > 0 {
		b.BundleLimits = make([]float64, len(ends))
		for i := range b.BundleLimits {
			if q := take(8); q != nil {
				b.BundleLimits[i] = math.Float64frombits(binary.LittleEndian.Uint64(q))
			}
		}
	}
	return b
}

// sameRowBits reports whether two bids' packed rows and limits are equal
// bit for bit.
func sameRowBits(a, b *core.Bid) bool {
	ai, av, an, aw := a.PackedRows()
	bi, bv, bn, bw := b.PackedRows()
	return slices.Equal(ai, bi) && sameBits(av, bv) && an == bn && aw == bw &&
		sameBits(a.BundleLimits, b.BundleLimits) && (a.BundleLimits == nil) == (b.BundleLimits == nil)
}

// FuzzArchiveRows archives an order with arbitrary packed rows beside two
// others and reads every one back, all three decoded into one pair of
// slabs as Orders and the snapshot decode them, and each on its own as
// Order does: PackedRows and BundleLimits must come back bit for bit, and
// the max limit a display row reads off the run must be the bid's —
// negative (seller) quantities, NaN, ±Inf and subnormal bits, bundles
// repeating their neighbour's quantities, up to 64 bundles, any width, and
// bundles of unequal width.
func FuzzArchiveRows(f *testing.F) {
	planet := []byte{3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 64, 1, 0, 0, 0, 0, 0, 0, 0, 16, 64, 2, 0, 154, 153, 153, 153, 153, 153, 185, 63,
		8, 3, 8, 3, 8, 3}
	f.Add(int32(39), false, planet)
	f.Add(int32(39), true, append(append([]byte(nil), planet...), 0, 0, 0, 0, 0, 0, 248, 127, 0, 0, 0, 0, 0, 0, 240, 255))
	f.Add(int32(-1), false, []byte{0x21, 5, 0, 0, 0, 0, 0, 0, 0, 0, 192, 0x51, 9, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add(int32(192), true, []byte{2, 7, 0, 0, 0, 0, 0, 0, 0, 8, 192, 6, 0, 0, 0, 0, 0, 0, 0, 240, 127})
	f.Add(int32(1<<20), false, []byte{1, 255, 255, 1, 0, 0, 0, 0, 0, 0, 0, 8, 200})
	f.Add(int32(39), true, make([]byte, 64))
	f.Fuzz(func(t *testing.T, width int32, vec bool, raw []byte) {
		b := fuzzBid(width, vec, raw)
		other := &core.Bid{User: "other", Limit: 12}
		other.PackSparse(39, []int{3, 6}, []int32{5, 3, 4, 8, 7, 6}, []float64{1, 2, 3, 1, 2, 3})
		var os orderShard
		os.width = 39
		bids := []*core.Bid{b, other, b}
		for i, bid := range bids {
			os.slots = append(os.slots, os.recordLocked(&Order{ID: i, Team: "t", Bid: bid, Status: Cancelled, Bundle: -1}))
		}
		var all rowDecode
		views := make([]*Order, len(bids))
		for j := range bids {
			views[j] = os.viewLocked(j, j, &all)
		}
		all.decode()
		for j, want := range bids {
			var one rowDecode
			alone := os.viewLocked(j, j, &one)
			one.decode()
			for _, got := range []*Order{views[j], alone} {
				if !sameRowBits(got.Bid, want) {
					gi, gv, gn, gw := got.Bid.PackedRows()
					wi, wv, wn, ww := want.PackedRows()
					t.Fatalf("order %d's rows came back as %v %v %d %d limits %v, booked %v %v %d %d limits %v",
						j, gi, gv, gn, gw, got.Bid.BundleLimits, wi, wv, wn, ww, want.BundleLimits)
				}
			}
			// The display row reads the max limit off the run's tail.
			if got := os.rowLocked(j, j).MaxLimit; math.Float64bits(got) != math.Float64bits(want.MaxLimit()) {
				t.Fatalf("order %d's row has max limit %v, the bid %v", j, got, want.MaxLimit())
			}
		}
	})
}
