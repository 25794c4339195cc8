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

// bidRows is the packed form of a bid's whole indifference set, and the
// only form a booked bid keeps: every bundle's non-zero components in
// ascending pool order, ±0 skipped, in one index slab and one value slab.
// Both slabs are pointer-free and immutable once built, so any number of
// auctions may read them concurrently and the collector never scans them.
type bidRows struct {
	// idx holds len(val) pool indices and then, past them, each bundle's
	// end offset into val — the boundaries ride in the slab so the header
	// stays two slices. When the bundles do not all have width components
	// (width < 0; such a bid never validates) their widths follow the ends.
	idx []int32
	val []float64
	// n is the number of bundles, width their common component count.
	n, width int32
}

// packRows packs qs in two passes — count, then fill exact-size slabs.
// It reads qs and keeps nothing of it.
func packRows(qs []resource.Vector) bidRows {
	nnz, width := 0, int32(0)
	for i, q := range qs {
		if i == 0 {
			width = int32(len(q))
		} else if int32(len(q)) != width {
			width = -1
		}
		for _, v := range q {
			if v != 0 {
				nnz++
			}
		}
	}
	r := newRows(len(qs), nnz, width)
	k := 0
	for i, q := range qs {
		for j, v := range q {
			if v != 0 {
				r.idx[k], r.val[k] = int32(j), v
				k++
			}
		}
		r.idx[nnz+i] = int32(k)
		if width < 0 {
			r.idx[nnz+len(qs)+i] = int32(len(q))
		}
	}
	return r
}

// newRows allocates the two slabs for n bundles of nnz components in all.
func newRows(n, nnz int, width int32) bidRows {
	tail := n
	if width < 0 {
		tail = 2 * n
	}
	return bidRows{idx: make([]int32, nnz+tail), val: make([]float64, nnz), n: int32(n), width: width}
}

// bundle returns a view of bundle i over the slabs.
//
//marketlint:allocfree
func (r *bidRows) bundle(i int) sparseBundle {
	nnz := len(r.val)
	lo, hi := 0, int(r.idx[nnz+i])
	if i > 0 {
		lo = int(r.idx[nnz+i-1])
	}
	return sparseBundle{idx: r.idx[lo:hi:hi], val: r.val[lo:hi:hi]}
}

// appendBundles appends one view per bundle to dst.
func (r *bidRows) appendBundles(dst []sparseBundle) []sparseBundle {
	for i := 0; i < int(r.n); i++ {
		dst = append(dst, r.bundle(i))
	}
	return dst
}

// widthOf returns the component count bundle i was given with.
func (r *bidRows) widthOf(i int) int {
	if r.width < 0 {
		return int(r.idx[len(r.val)+int(r.n)+i])
	}
	return int(r.width)
}

// dense rebuilds bundle i as the vector it was packed from (a −0
// component comes back as +0).
func (r *bidRows) dense(i int) resource.Vector {
	q := make(resource.Vector, r.widthOf(i))
	r.bundle(i).scatter(q)
	return q
}

// scatter writes the bundle's components into z, leaving the rest of z
// as it is.
//
//marketlint:allocfree
func (s sparseBundle) scatter(z resource.Vector) {
	for k, i := range s.idx {
		z[i] = s.val[k]
	}
}

// dot computes qᵀp touching only non-zero components.
//
//marketlint:allocfree
func (s sparseBundle) dot(p resource.Vector) float64 {
	var sum float64
	for k, i := range s.idx {
		sum += float64(s.val[k] * p[i]) // rounded before the add (make fma-check)
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
