package mem

import "testing"

// The fault-containment invariant compares memory fingerprints across
// machines whose speculative threads peek at arbitrary addresses, so the
// hash must be independent of which all-zero pages happen to be resident
// and peeking must never change the page map.

func TestPeekDoesNotMaterialize(t *testing.T) {
	m := NewMemory()
	m.WriteU64(0x2000, 0xDEADBEEF)
	pages := m.Pages()
	if v := m.PeekU8(0x2000); v != 0xEF {
		t.Errorf("peek of written byte = %#x", v)
	}
	if v := m.PeekU8(0x9000_0000); v != 0 {
		t.Errorf("peek of untouched address = %#x", v)
	}
	if m.Pages() != pages {
		t.Errorf("peek materialized a page: %d -> %d", pages, m.Pages())
	}
	// An ordinary read of the same address does materialize — the contrast
	// is the point of PeekU8.
	_ = m.ReadU8(0x9000_0000)
	if m.Pages() == pages {
		t.Error("ReadU8 unexpectedly stopped materializing pages")
	}
}

func TestPeekU64DoesNotMaterialize(t *testing.T) {
	m := NewMemory()
	m.WriteU64(0x2000, 0x0123_4567_89AB_CDEF)
	m.WriteU64(0x1_FFFC, 0x1122_3344_5566_7788) // spans two pages
	pages := m.Pages()
	cases := []struct {
		addr uint32
		want uint64
	}{
		{0x2000, 0x0123_4567_89AB_CDEF},
		{0x2004, 0x0123_4567},
		{0x1_FFFC, 0x1122_3344_5566_7788},
		{0x9000_0000, 0},
		{0x9000_FFFC, 0}, // spans two unmapped pages
		{0x2_FFFC, 0},    // spans from a mapped page into an unmapped one
		{0xFFFF_FFFC, 0}, // wraps past the top of the address space
	}
	for _, c := range cases {
		if got := m.PeekU64(c.addr); got != c.want {
			t.Errorf("PeekU64(%#x) = %#x, want %#x", c.addr, got, c.want)
		}
	}
	if m.Pages() != pages {
		t.Errorf("PeekU64 materialized pages: %d -> %d", pages, m.Pages())
	}
	for _, c := range cases {
		if got := m.ReadU64(c.addr); got != c.want {
			t.Errorf("ReadU64(%#x) = %#x, want %#x", c.addr, got, c.want)
		}
	}
}

func TestHashIgnoresZeroPages(t *testing.T) {
	a, b := NewMemory(), NewMemory()
	if a.Hash() != b.Hash() {
		t.Fatal("fresh memories hash differently")
	}
	_ = a.ReadU8(0x5000) // materializes an all-zero page
	if a.Hash() != b.Hash() {
		t.Error("resident all-zero page changed the hash")
	}
	a.WriteU8(0x5000, 1)
	if a.Hash() == b.Hash() {
		t.Error("nonzero byte did not change the hash")
	}
	c := NewMemory()
	c.WriteU8(0x5000, 1)
	if a.Hash() != c.Hash() {
		t.Error("equal contents hash differently")
	}
	a.WriteU8(0x5000, 0)
	if a.Hash() != b.Hash() {
		t.Error("zeroed-out page still affects the hash")
	}
}

func TestHashCoversAddressAndContents(t *testing.T) {
	a, b := NewMemory(), NewMemory()
	a.WriteU8(0x5000, 7)
	b.WriteU8(0x6000, 7) // same byte, different page
	if a.Hash() == b.Hash() {
		t.Error("hash ignores the page address")
	}
	b2 := NewMemory()
	b2.WriteU8(0x6000, 8)
	if b.Hash() == b2.Hash() {
		t.Error("hash ignores the byte value")
	}
}
