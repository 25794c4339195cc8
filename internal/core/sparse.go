package core

import "clustermarket/internal/resource"

// sparseBundle is the packed form of a bundle vector used on the clock's
// hot path. Real bids touch a handful of pools (one cluster × three
// dimensions) out of hundreds, so evaluating qᵀp over only the non-zero
// components turns each auction round from O(U·R) into O(Σ nnz).
type sparseBundle struct {
	idx []int32
	val []float64
}

// packedBid is the packed form of a bid's whole indifference set: one
// sparseBundle per bundle, each in ascending pool order with ±0 skipped,
// all sharing one index slab and one value slab. It is immutable once
// built, so any number of auctions may read it concurrently.
type packedBid struct {
	bundles []sparseBundle
	// src is the Bundles slice the form was packed from: a Bid copy whose
	// Bundles were replaced since fails the identity test in of.
	src []resource.Vector
	// few backs bundles for the usual few-cluster XOR: one allocation less.
	few [4]sparseBundle
}

// packBundles packs qs in two passes — count, then fill exact-size
// slabs — so a bid costs three allocations (four beyond len(few) bundles).
func packBundles(qs []resource.Vector) *packedBid {
	pk := &packedBid{src: qs}
	if pk.bundles = pk.few[:0]; len(qs) > len(pk.few) {
		pk.bundles = make([]sparseBundle, 0, len(qs))
	}
	nnz := 0
	for _, q := range qs {
		for _, v := range q {
			if v != 0 {
				nnz++
			}
		}
	}
	idx, val := make([]int32, nnz), make([]float64, nnz)
	n := 0
	for _, q := range qs {
		lo := n
		for j, v := range q {
			if v != 0 {
				idx[n], val[n] = int32(j), v
				n++
			}
		}
		pk.bundles = append(pk.bundles, sparseBundle{idx: idx[lo:n], val: val[lo:n]})
	}
	return pk
}

// of reports whether pk was packed from exactly this Bundles slice.
func (pk *packedBid) of(qs []resource.Vector) bool {
	return len(qs) == len(pk.src) && (len(qs) == 0 || &qs[0] == &pk.src[0])
}

// dot computes qᵀp touching only non-zero components.
//
//marketlint:allocfree
func (s sparseBundle) dot(p resource.Vector) float64 {
	var sum float64
	for k, i := range s.idx {
		sum += s.val[k] * p[i]
	}
	return sum
}

// addInto accumulates the bundle into dense vector z.
//
//marketlint:allocfree
func (s sparseBundle) addInto(z resource.Vector) {
	for k, i := range s.idx {
		z[i] += s.val[k]
	}
}

// valueAt returns the bundle's component in pool r and whether the bundle
// touches it at all. The miss/hit distinction matters to the incremental
// engine's determinism contract: a stale-pool re-sum must skip untouched
// bundles entirely, exactly as addInto never visits them, rather than
// add a 0.0 (which is not always a bit-level no-op in IEEE arithmetic).
// Bundles hold a handful of non-zero components, so the linear scan is
// cheaper than any index structure.
//
//marketlint:allocfree
func (s sparseBundle) valueAt(r int32) (float64, bool) {
	for k, i := range s.idx {
		if i == r {
			return s.val[k], true
		}
	}
	return 0, false
}
