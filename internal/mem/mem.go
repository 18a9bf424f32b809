// Package mem implements the simulated physical memory backing the
// Tarantula chip model. Memory is allocated lazily in fixed-size frames so
// that sparse address spaces (the 512 MB-page virtual layout used by the
// workloads) stay cheap to host.
package mem

import (
	"encoding/binary"
	"fmt"
)

// FrameBits is the log2 of the lazy-allocation frame size. 1 MiB frames keep
// the frame map small while avoiding huge up-front allocations.
const FrameBits = 20

// FrameSize is the number of bytes per lazily allocated frame.
const FrameSize = 1 << FrameBits

// Memory is a sparse, lazily allocated physical memory. The zero value is
// ready to use. Memory is not safe for concurrent use; the simulator is
// single-threaded by design (the chip model advances one cycle at a time).
type Memory struct {
	frames map[uint64][]byte
	// Size tracks the highest touched address + 1, for reporting.
	size uint64
	// last and lastID cache the most recently used frame: consecutive
	// accesses mostly stay in one frame, which then costs no map lookup.
	// LoadState replaces the frames and so clears the cache.
	last   []byte
	lastID uint64
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{frames: make(map[uint64][]byte)}
}

func (m *Memory) frame(addr uint64) []byte {
	if end := addr + 1; end > m.size {
		m.size = end
	}
	id := addr >> FrameBits
	if id == m.lastID && m.last != nil {
		return m.last
	}
	if m.frames == nil {
		m.frames = make(map[uint64][]byte)
	}
	f, ok := m.frames[id]
	if !ok {
		f = make([]byte, FrameSize)
		m.frames[id] = f
	}
	m.last, m.lastID = f, id
	return f
}

// Footprint returns the number of bytes of host memory allocated for frames.
func (m *Memory) Footprint() uint64 {
	return uint64(len(m.frames)) * FrameSize
}

// HighWater returns the highest touched address plus one.
func (m *Memory) HighWater() uint64 { return m.size }

// LoadQ reads a 64-bit little-endian quadword. The address must be
// quadword-aligned; Alpha requires natural alignment and the Tarantula
// kernels are written that way, so misalignment is a kernel bug we want to
// catch loudly.
func (m *Memory) LoadQ(addr uint64) uint64 {
	if addr&7 != 0 {
		panic(fmt.Sprintf("mem: unaligned quadword load at %#x", addr))
	}
	f := m.frame(addr)
	off := addr & (FrameSize - 1)
	if off+8 <= FrameSize {
		b := f[off : off+8 : off+8]
		return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	}
	// Aligned quadwords never straddle a 1 MiB frame boundary.
	panic("mem: quadword straddles frame")
}

// StoreQ writes a 64-bit little-endian quadword at a quadword-aligned
// address.
func (m *Memory) StoreQ(addr, v uint64) {
	if addr&7 != 0 {
		panic(fmt.Sprintf("mem: unaligned quadword store at %#x", addr))
	}
	f := m.frame(addr)
	off := addr & (FrameSize - 1)
	b := f[off : off+8 : off+8]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
	if end := addr + 8; end > m.size {
		m.size = end
	}
}

// LoadQStrided reads len(dst) quadwords, at base, base+stride,
// base+2·stride and so on, into dst in element order. It is LoadQ per
// element, with the same alignment panic and high-water mark, but it looks
// each frame up once for the run of elements that lie in it.
func (m *Memory) LoadQStrided(dst []uint64, base uint64, stride int64) {
	if (base|uint64(stride))&7 != 0 {
		// Some element is unaligned: LoadQ panics at the first one.
		for i := range dst {
			dst[i] = m.LoadQ(base + uint64(int64(i)*stride))
		}
		return
	}
	var f []byte
	id, hi := ^uint64(0), uint64(0)
	addr := base
	for i := range dst {
		if addr>>FrameBits != id {
			id = addr >> FrameBits
			f = m.frame(addr)
		}
		hi = max(hi, addr)
		dst[i] = binary.LittleEndian.Uint64(f[addr&(FrameSize-1):])
		addr += uint64(stride)
	}
	if len(dst) > 0 && hi+1 > m.size {
		m.size = hi + 1
	}
}

// StoreQStrided writes src's quadwords at base, base+stride, base+2·stride
// and so on, in element order, so a later element wins where addresses
// repeat. It is StoreQ per element, looking each frame up once.
func (m *Memory) StoreQStrided(base uint64, stride int64, src []uint64) {
	if (base|uint64(stride))&7 != 0 {
		for i, v := range src {
			m.StoreQ(base+uint64(int64(i)*stride), v)
		}
		return
	}
	var f []byte
	id, hi := ^uint64(0), uint64(0)
	addr := base
	for _, v := range src {
		if addr>>FrameBits != id {
			id = addr >> FrameBits
			f = m.frame(addr)
		}
		hi = max(hi, addr)
		binary.LittleEndian.PutUint64(f[addr&(FrameSize-1):], v)
		addr += uint64(stride)
	}
	if len(src) > 0 && hi+8 > m.size {
		m.size = hi + 8
	}
}

// LoadL reads a 32-bit little-endian longword (sign handling is the
// caller's concern, as on Alpha).
func (m *Memory) LoadL(addr uint64) uint32 {
	if addr&3 != 0 {
		panic(fmt.Sprintf("mem: unaligned longword load at %#x", addr))
	}
	f := m.frame(addr)
	off := addr & (FrameSize - 1)
	b := f[off : off+4 : off+4]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// StoreL writes a 32-bit little-endian longword.
func (m *Memory) StoreL(addr uint64, v uint32) {
	if addr&3 != 0 {
		panic(fmt.Sprintf("mem: unaligned longword store at %#x", addr))
	}
	f := m.frame(addr)
	off := addr & (FrameSize - 1)
	b := f[off : off+4 : off+4]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	if end := addr + 4; end > m.size {
		m.size = end
	}
}

// ZeroLine zeroes the 64-byte cache line containing addr. This is the
// semantic effect of the Alpha WH64 (write hint 64) instruction, which the
// STREAMS kernels use to avoid read-for-ownership traffic.
func (m *Memory) ZeroLine(addr uint64) {
	base := addr &^ 63
	f := m.frame(base)
	off := base & (FrameSize - 1)
	clear(f[off : off+64])
}
