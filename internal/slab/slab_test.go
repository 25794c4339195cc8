package slab

import "testing"

// TestRecordsAreDense pushes records across chunk boundaries: positions
// run 0, 1, 2, … whatever chunk a record lands in, a record never moves,
// and the capacity held is whole chunks.
func TestRecordsAreDense(t *testing.T) {
	const chunk = 4
	var s Slab[int]
	var ptrs []*int
	for i := 0; i < 10; i++ {
		pos, r := s.Push(chunk)
		if pos != i {
			t.Fatalf("record %d pushed at position %d", i, pos)
		}
		*r = 100 + i
		ptrs = append(ptrs, r)
	}
	for i, p := range ptrs {
		if s.At(i, chunk) != p || *p != 100+i {
			t.Errorf("record %d moved or changed: %d", i, *s.At(i, chunk))
		}
	}
	if s.Len(chunk) != 10 || s.Held() != 12 {
		t.Errorf("10 records: Len %d, Held %d; want 10, 12 (3 chunks)", s.Len(chunk), s.Held())
	}
}

// TestRunsStayInOneChunk allocates runs: one that does not fit the open
// chunk starts the next, and one wider than a chunk gets its own.
func TestRunsStayInOneChunk(t *testing.T) {
	const chunk = 8
	var s Slab[byte]
	at1, r1 := s.Alloc(5, chunk)
	copy(r1, "hello")
	at2, r2 := s.Alloc(5, chunk) // does not fit beside the first
	copy(r2, "world")
	at3, r3 := s.Alloc(12, chunk) // wider than a chunk
	copy(r3, "a private one")
	if at1>>32 == at2>>32 || at2>>32 == at3>>32 {
		t.Errorf("runs share chunks: addresses %#x %#x %#x", at1, at2, at3)
	}
	if got := string(s.From(at1)); got != "hello" {
		t.Errorf("From(first) = %q", got)
	}
	if got := string(s.From(at2)); got != "world" {
		t.Errorf("From(second) = %q", got)
	}
	if got := string(s.From(at3)); got != "a private on" {
		t.Errorf("From(wide) = %q", got)
	}
	if s.Held() != 8+8+12 {
		t.Errorf("Held = %d, want two chunks and the private one, 28", s.Held())
	}
}
