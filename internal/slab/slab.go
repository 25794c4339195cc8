// Package slab is the append-only store behind the market archive and the
// federation router's table: entries kept in fixed-size chunks that never
// move. Growth allocates a chunk and copies nothing, there is no doubling
// slack (only the last chunk's empty tail), and for an element type
// without pointers every chunk is memory the collector never scans.
// Retiring entries below a watermark would be dropping whole chunks.
package slab

// Slab holds T in chunks whose size the caller fixes — a constant of a
// few KB, passed to every call, so that the inlined arithmetic folds. A
// slab is used one of two ways, never both:
//
//   - records, through Push, At and Len: one entry at a time, every chunk
//     filled before the next, so a record's address is its dense position;
//   - runs, through Alloc and From: several entries contiguous in one
//     chunk, addressed by chunk number and offset in one word, and a run
//     longer than a chunk gets a chunk of its own.
type Slab[T any] struct {
	chunks [][]T
	open   int // the chunk being filled; a private chunk is born full
	held   int // entries of capacity allocated so far
}

// Alloc reserves a run of n entries in chunks of the given size.
//
//marketlint:allocfree
func (s *Slab[T]) Alloc(n, chunk int) (at uint64, run []T) {
	if n > chunk {
		//marketlint:allow allocfree one private chunk for a run wider than a chunk
		s.chunks = append(s.chunks, make([]T, n))
		s.held += n
		k := len(s.chunks) - 1
		return uint64(k) << 32, s.chunks[k]
	}
	if len(s.chunks) == 0 || len(s.chunks[s.open])+n > chunk {
		//marketlint:allow allocfree one chunk per few KB of entries, not per entry
		s.chunks = append(s.chunks, make([]T, 0, chunk))
		s.open = len(s.chunks) - 1
		s.held += chunk
	}
	c := s.chunks[s.open]
	off := len(c)
	s.chunks[s.open] = c[:off+n]
	return uint64(s.open)<<32 | uint64(off), c[off : off+n : off+n]
}

// From returns the entries from address at to the end of its chunk's
// filled part: the run Alloc put there and the runs after it. Entries
// are never moved, so the slice may outlive the lock it was taken under.
//
//marketlint:allocfree
func (s *Slab[T]) From(at uint64) []T {
	c := s.chunks[at>>32]
	return c[int(uint32(at)):len(c):len(c)]
}

// Push appends one zero record, for the caller to fill in place, and
// returns it with its position.
//
//marketlint:allocfree
func (s *Slab[T]) Push(chunk int) (int, *T) {
	at, run := s.Alloc(1, chunk)
	return int(at>>32)*chunk + int(uint32(at)), &run[0]
}

// At returns the record Push put at position i.
//
//marketlint:allocfree
func (s *Slab[T]) At(i, chunk int) *T { return &s.chunks[i/chunk][i%chunk] }

// Len returns the number of records pushed.
//
//marketlint:allocfree
func (s *Slab[T]) Len(chunk int) int {
	if len(s.chunks) == 0 {
		return 0
	}
	return (len(s.chunks)-1)*chunk + len(s.chunks[len(s.chunks)-1])
}

// Held returns the entries of capacity allocated, empty tails included:
// times the size of T, the bytes the slab holds.
//
//marketlint:allocfree
func (s *Slab[T]) Held() int { return s.held }
