// Package mem provides the data-memory model shared by the functional
// emulator, the profiler, and the cycle-level core: a sparse paged flat
// memory plus a two-level set-associative write-back cache hierarchy with
// the latencies of the paper's Table 2.
package mem

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
)

const (
	pageBits = 16
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// Memory is a sparse, paged, little-endian byte-addressable memory. The
// zero value is ready to use; pages materialize on first touch and read as
// zero before being written.
type Memory struct {
	pages map[uint32]*[pageSize]byte

	// One-entry page cache: workloads have strong page locality and this
	// keeps the simulator's hot loop off the map most of the time.
	lastBase uint32
	lastPage *[pageSize]byte
}

// NewMemory returns an empty memory image.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint32]*[pageSize]byte)}
}

func (m *Memory) page(addr uint32) *[pageSize]byte {
	base := addr &^ pageMask
	if m.lastPage != nil && m.lastBase == base {
		return m.lastPage
	}
	if m.pages == nil {
		m.pages = make(map[uint32]*[pageSize]byte)
	}
	p, ok := m.pages[base]
	if !ok {
		p = new([pageSize]byte)
		m.pages[base] = p
	}
	m.lastBase, m.lastPage = base, p
	return p
}

// crosses reports whether [addr, addr+size) spans a page boundary.
func crosses(addr uint32, size uint32) bool {
	return addr&pageMask+size > pageSize
}

// ReadU8 reads one byte.
func (m *Memory) ReadU8(addr uint32) uint8 { return m.page(addr)[addr&pageMask] }

// PeekU8 reads one byte without materializing the page: an unmapped
// address reads as zero and the page map is left untouched. Speculative
// observers (the p-thread context) use it so that garbage reads leave no
// trace in the architectural memory image.
func (m *Memory) PeekU8(addr uint32) uint8 {
	base := addr &^ pageMask
	if m.lastPage != nil && m.lastBase == base {
		return m.lastPage[addr&pageMask]
	}
	if p, ok := m.pages[base]; ok {
		return p[addr&pageMask]
	}
	return 0
}

// PeekU64 is the 64-bit PeekU8: it reads a little-endian value without
// materializing pages, and bytes on an unmapped page read as zero.
func (m *Memory) PeekU64(addr uint32) uint64 {
	if crosses(addr, 8) {
		var v uint64
		for i := uint32(0); i < 8; i++ {
			v |= uint64(m.PeekU8(addr+i)) << (8 * i)
		}
		return v
	}
	base := addr &^ pageMask
	p := m.lastPage
	if p == nil || m.lastBase != base {
		if p = m.pages[base]; p == nil {
			return 0
		}
	}
	o := addr & pageMask
	return binary.LittleEndian.Uint64(p[o : o+8])
}

// WriteU8 writes one byte.
func (m *Memory) WriteU8(addr uint32, v uint8) { m.page(addr)[addr&pageMask] = v }

// ReadU16 reads a little-endian 16-bit value.
func (m *Memory) ReadU16(addr uint32) uint16 {
	if crosses(addr, 2) {
		return uint16(m.ReadU8(addr)) | uint16(m.ReadU8(addr+1))<<8
	}
	p := m.page(addr)
	o := addr & pageMask
	return binary.LittleEndian.Uint16(p[o : o+2])
}

// WriteU16 writes a little-endian 16-bit value.
func (m *Memory) WriteU16(addr uint32, v uint16) {
	if crosses(addr, 2) {
		m.WriteU8(addr, uint8(v))
		m.WriteU8(addr+1, uint8(v>>8))
		return
	}
	p := m.page(addr)
	o := addr & pageMask
	binary.LittleEndian.PutUint16(p[o:o+2], v)
}

// ReadU32 reads a little-endian 32-bit value.
func (m *Memory) ReadU32(addr uint32) uint32 {
	if crosses(addr, 4) {
		return uint32(m.ReadU16(addr)) | uint32(m.ReadU16(addr+2))<<16
	}
	p := m.page(addr)
	o := addr & pageMask
	return binary.LittleEndian.Uint32(p[o : o+4])
}

// WriteU32 writes a little-endian 32-bit value.
func (m *Memory) WriteU32(addr uint32, v uint32) {
	if crosses(addr, 4) {
		m.WriteU16(addr, uint16(v))
		m.WriteU16(addr+2, uint16(v>>16))
		return
	}
	p := m.page(addr)
	o := addr & pageMask
	binary.LittleEndian.PutUint32(p[o:o+4], v)
}

// ReadU64 reads a little-endian 64-bit value.
func (m *Memory) ReadU64(addr uint32) uint64 {
	if crosses(addr, 8) {
		return uint64(m.ReadU32(addr)) | uint64(m.ReadU32(addr+4))<<32
	}
	p := m.page(addr)
	o := addr & pageMask
	return binary.LittleEndian.Uint64(p[o : o+8])
}

// WriteU64 writes a little-endian 64-bit value.
func (m *Memory) WriteU64(addr uint32, v uint64) {
	if crosses(addr, 8) {
		m.WriteU32(addr, uint32(v))
		m.WriteU32(addr+4, uint32(v>>32))
		return
	}
	p := m.page(addr)
	o := addr & pageMask
	binary.LittleEndian.PutUint64(p[o:o+8], v)
}

// ReadF64 reads an IEEE-754 double.
func (m *Memory) ReadF64(addr uint32) float64 { return math.Float64frombits(m.ReadU64(addr)) }

// WriteF64 writes an IEEE-754 double.
func (m *Memory) WriteF64(addr uint32, v float64) { m.WriteU64(addr, math.Float64bits(v)) }

// WriteBytes copies b into memory starting at addr.
func (m *Memory) WriteBytes(addr uint32, b []byte) {
	for len(b) > 0 {
		p := m.page(addr)
		o := addr & pageMask
		n := copy(p[o:], b)
		b = b[n:]
		addr += uint32(n)
	}
}

// Clone returns a deep copy of the memory image (used to reuse one
// initialized workload image across simulator configurations).
func (m *Memory) Clone() *Memory {
	c := NewMemory()
	for base, p := range m.pages {
		np := new([pageSize]byte)
		*np = *p
		c.pages[base] = np
	}
	return c
}

// Pages reports how many 64 KiB pages have been materialized.
func (m *Memory) Pages() int { return len(m.pages) }

// Hash fingerprints the memory contents with FNV-1a. All-zero pages are
// skipped, so the hash depends only on the bytes that read as nonzero —
// two images that differ merely in which zero pages were materialized
// hash identically.
func (m *Memory) Hash() uint64 {
	bases := make([]uint32, 0, len(m.pages))
	for base := range m.pages {
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	h := fnv.New64a()
	var buf [4]byte
	for _, base := range bases {
		p := m.pages[base]
		zero := true
		for _, b := range p {
			if b != 0 {
				zero = false
				break
			}
		}
		if zero {
			continue
		}
		binary.LittleEndian.PutUint32(buf[:], base)
		h.Write(buf[:])
		h.Write(p[:])
	}
	return h.Sum64()
}
