package market

import (
	"encoding/binary"
	"math"

	"clustermarket/internal/core"
)

// A terminal order's rows are one run of bytes in its stripe's row slab,
// written once by recordLocked and decoded by every view of the order:
//
//	uvarint   n<<1 | v          n bundles; v = 1 when n vector-π limits follow
//	uvarint   width − base      as 32 bits; base is the registry's pool count,
//	                            every bundle's width, so this is a zero byte
//	per bundle:
//	  uvarint rows<<1 | same    same = 1: the quantities are the previous
//	                            bundle's, bit for bit
//	  rows ×  uvarint           the pool indices: the first whole, then each
//	                            one's 32-bit difference from the one before
//	                            (indices ascend within a row: a byte or two)
//	  rows ×  float64           the quantities, unless same
//	n ×       uvarint           width < 0 only: each bundle's width
//	n ×       float64           the vector-π limits, when v = 1
//
// A float64 is its IEEE bits, little-endian, never decimal, so every view's
// PackedRows and BundleLimits are the booked bid's bit for bit. There is no
// length: the run ends where its layout says. SubmitProduct books one
// request in each of N clusters, so its last N − 1 bundles are all "same":
// the planet's 4-cluster product order is a 42-byte run, whatever the
// planet's size.

// appendRun appends the run of bid b's packed rows and limits to dst.
//
//marketlint:allocfree
func appendRun(dst []byte, b *core.Bid, base int32) []byte {
	idx, val, n, width := b.PackedRows()
	head := uint64(n) << 1
	if len(b.BundleLimits) > 0 {
		head |= 1
	}
	dst = binary.AppendUvarint(dst, head)
	dst = binary.AppendUvarint(dst, uint64(uint32(width-base)))
	nnz, lo := len(val), 0
	var prev []float64
	for i := 0; i < int(n); i++ {
		hi := int(idx[nnz+i])
		row := val[lo:hi]
		same := i > 0 && sameBits(row, prev)
		word := uint64(hi-lo) << 1
		if same {
			word |= 1
		}
		dst = binary.AppendUvarint(dst, word)
		last := uint32(0)
		for _, p := range idx[lo:hi] {
			dst = binary.AppendUvarint(dst, uint64(uint32(p)-last))
			last = uint32(p)
		}
		if !same {
			dst = appendFloats(dst, row)
		}
		prev, lo = row, hi
	}
	if width < 0 {
		for _, w := range idx[nnz+int(n):] {
			dst = binary.AppendUvarint(dst, uint64(uint32(w)))
		}
	}
	return appendFloats(dst, b.BundleLimits)
}

//marketlint:allocfree
func appendFloats(dst []byte, fs []float64) []byte {
	for _, f := range fs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst
}

//marketlint:allocfree
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// runReader walks a run. Runs are the archive's own bytes, written by
// appendRun, so it does not check them.
type runReader struct {
	b   []byte
	off int
}

func (r *runReader) uvarint() uint64 {
	v, k := binary.Uvarint(r.b[r.off:])
	r.off += k
	return v
}

func (r *runReader) float() float64 {
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return f
}

func (r *runReader) head(base int32) (n int, width int32, vec bool) {
	h := r.uvarint()
	return int(h >> 1), base + int32(uint32(r.uvarint())), h&1 != 0
}

// skipBundles walks past the run's n bundles and, when width < 0, their
// widths, and returns the bundles' row entries.
func (r *runReader) skipBundles(n int, width int32) (rows int) {
	for i := 0; i < n; i++ {
		word := r.uvarint()
		k := int(word >> 1)
		for j := 0; j < k; j++ {
			r.uvarint()
		}
		if word&1 == 0 {
			r.off += 8 * k
		}
		rows += k
	}
	if width < 0 {
		for i := 0; i < n; i++ {
			r.uvarint()
		}
	}
	return rows
}

// runShape returns the lengths of the two slabs the run decodes to: the
// index slab PackedRows returns, and its value slab followed by the
// limits.
func runShape(run []byte, base int32) (ni, nv int) {
	r := runReader{b: run}
	n, width, vec := r.head(base)
	nv = r.skipBundles(n, width)
	ni = nv + n
	if width < 0 {
		ni += n
	}
	if vec {
		nv += n
	}
	return ni, nv
}

// runMaxLimit returns the archived bid's MaxLimit: the largest of the
// vector-π limits at the run's tail, read without decoding a row, or
// limit, the scalar one, when the bid has none.
func runMaxLimit(run []byte, base int32, limit float64) float64 {
	r := runReader{b: run}
	n, width, vec := r.head(base)
	if !vec {
		return limit
	}
	r.skipBundles(n, width)
	m := r.float()
	for i := 1; i < n; i++ {
		if l := r.float(); l > m {
			m = l
		}
	}
	return m
}

// decodeRun decodes the run into idx and val, sized by runShape, and
// gives b the rows and limits, which alias them.
func decodeRun(run []byte, base int32, b *core.Bid, idx []int32, val []float64) {
	r := runReader{b: run}
	n, width, vec := r.head(base)
	nnz := len(val)
	if vec {
		nnz -= n
	}
	lo := 0
	for i := 0; i < n; i++ {
		word := r.uvarint()
		hi := lo + int(word>>1)
		last := uint32(0)
		for k := lo; k < hi; k++ {
			last += uint32(r.uvarint())
			idx[k] = int32(last)
		}
		if word&1 != 0 {
			copy(val[lo:hi], val[2*lo-hi:lo])
		} else {
			for k := lo; k < hi; k++ {
				val[k] = r.float()
			}
		}
		idx[nnz+i] = int32(hi)
		lo = hi
	}
	for k := nnz + n; k < len(idx); k++ { // width < 0: the bundles' widths
		idx[k] = int32(uint32(r.uvarint()))
	}
	b.AdoptRows(idx, val[:nnz:nnz], int32(n), width)
	if vec {
		lim := val[nnz:]
		for k := range lim {
			lim[k] = r.float()
		}
		b.BundleLimits = lim
	}
}

// rowDecode gathers the bids of the views one read materialises from the
// archive and then decodes all their rows into one index slab and one
// value slab: a read of k archived orders allocates two slabs, not 2k. A
// run never changes once written, so decode needs no lock.
type rowDecode struct {
	views  []pendingRows
	ni, nv int
}

type pendingRows struct {
	b      *core.Bid
	run    []byte
	base   int32
	ni, nv int
}

func (d *rowDecode) add(b *core.Bid, run []byte, base int32) {
	ni, nv := runShape(run, base)
	d.views = append(d.views, pendingRows{b, run, base, ni, nv})
	d.ni += ni
	d.nv += nv
}

func (d *rowDecode) decode() {
	if len(d.views) == 0 {
		return
	}
	idx, val := make([]int32, d.ni), make([]float64, d.nv)
	for _, p := range d.views {
		decodeRun(p.run, p.base, p.b, idx[:p.ni:p.ni], val[:p.nv:p.nv])
		idx, val = idx[p.ni:], val[p.nv:]
	}
	*d = rowDecode{}
}
