package mem

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMemoryZeroFill(t *testing.T) {
	m := NewMemory()
	if v := m.ReadU64(0x1000); v != 0 {
		t.Errorf("fresh memory reads %d, want 0", v)
	}
	if v := m.ReadU8(0xFFFF_FFF0); v != 0 {
		t.Errorf("fresh memory high address reads %d, want 0", v)
	}
}

func TestMemoryReadWriteWidths(t *testing.T) {
	m := NewMemory()
	m.WriteU8(10, 0xAB)
	if got := m.ReadU8(10); got != 0xAB {
		t.Errorf("u8: got %#x", got)
	}
	m.WriteU16(20, 0xBEEF)
	if got := m.ReadU16(20); got != 0xBEEF {
		t.Errorf("u16: got %#x", got)
	}
	m.WriteU32(40, 0xDEADBEEF)
	if got := m.ReadU32(40); got != 0xDEADBEEF {
		t.Errorf("u32: got %#x", got)
	}
	m.WriteU64(80, 0x0123456789ABCDEF)
	if got := m.ReadU64(80); got != 0x0123456789ABCDEF {
		t.Errorf("u64: got %#x", got)
	}
	m.WriteF64(96, -3.25)
	if got := m.ReadF64(96); got != -3.25 {
		t.Errorf("f64: got %v", got)
	}
	m.WriteF64(104, math.NaN())
	if got := m.ReadF64(104); !math.IsNaN(got) {
		t.Errorf("f64 NaN: got %v", got)
	}
}

func TestMemoryLittleEndian(t *testing.T) {
	m := NewMemory()
	m.WriteU32(0, 0x04030201)
	for i := uint32(0); i < 4; i++ {
		if got := m.ReadU8(i); got != uint8(i+1) {
			t.Errorf("byte %d = %#x, want %#x", i, got, i+1)
		}
	}
}

func TestMemoryPageBoundary(t *testing.T) {
	// Accesses straddling a 64 KiB page boundary must be assembled
	// correctly from both pages.
	m := NewMemory()
	base := uint32(pageSize - 4)
	var full uint64 = 0x1122334455667788
	m.WriteU64(base, full)
	if got := m.ReadU64(base); got != full {
		t.Errorf("u64 across page: got %#x", got)
	}
	if got := m.ReadU32(base + 2); got != uint32(full>>16) {
		t.Errorf("u32 across page: got %#x", got)
	}
	if m.Pages() != 2 {
		t.Errorf("expected 2 pages, got %d", m.Pages())
	}
}

func TestMemoryBytes(t *testing.T) {
	m := NewMemory()
	data := make([]byte, 3*pageSize/2)
	for i := range data {
		data[i] = byte(i * 7)
	}
	m.WriteBytes(100, data)
	for i := range data {
		if got := m.ReadU8(100 + uint32(i)); got != data[i] {
			t.Fatalf("byte %d: got %d want %d", i, got, data[i])
		}
	}
}

func TestMemoryClone(t *testing.T) {
	m := NewMemory()
	m.WriteU64(64, 42)
	c := m.Clone()
	c.WriteU64(64, 99)
	if m.ReadU64(64) != 42 {
		t.Error("Clone aliases original pages")
	}
	if c.ReadU64(64) != 99 {
		t.Error("Clone lost its own write")
	}
}

// TestMemoryQuickVsMap checks the paged memory against a flat map reference
// model under a random byte-level workload.
func TestMemoryQuickVsMap(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := NewMemory()
		ref := map[uint32]byte{}
		for i := 0; i < 2000; i++ {
			addr := uint32(r.Intn(3 * pageSize))
			if r.Intn(2) == 0 {
				v := byte(r.Intn(256))
				m.WriteU8(addr, v)
				ref[addr] = v
			} else if m.ReadU8(addr) != ref[addr] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
