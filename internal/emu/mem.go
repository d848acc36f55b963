// Package emu provides the functional (architectural) emulator for the isa
// package: a paged 64-bit word memory that stores each page at the width
// its values need, an overlay memory used to contain look-ahead
// speculation, and a Machine that executes one instruction per Step,
// producing the dynamic record stream every timing model consumes.
package emu

const (
	pageShift = 12 // 4096 words per page: 4 KiB at 8 bits a word, 32 KiB at 64
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1
)

// page holds 4096 words at the narrowest of 8, 16, 32 or 64 bits a word
// that holds every value written to it so far; most workload pages hold
// only small values. 1<<sh words share one element of data, word i at bit
// (i mod 1<<sh) * (64>>sh) of data[i>>sh]. A write that does not fit
// widens the page (see Memory.writable); a page never narrows.
type page struct {
	owner *Memory  // the only Memory that may write the page
	data  []uint64 // pageWords>>sh elements
	mask  uint64   // the largest value a word holds: 1<<(64>>sh) - 1
	sh    uint8    // log2 of words per element: 3 (8-bit) down to 0 (64-bit)
}

// fit returns the sh of the narrowest width that holds v.
func fit(v uint64) uint8 {
	switch {
	case v <= 0xff:
		return 3
	case v <= 0xffff:
		return 2
	case v <= 0xffff_ffff:
		return 1
	}
	return 0
}

// get returns word i.
func (p *page) get(i uint64) uint64 {
	return p.data[i>>p.sh] >> (i << (6 - p.sh) & 63) & p.mask
}

// put stores v, which must fit the page's width, into word i.
func (p *page) put(i, v uint64) {
	s := i << (6 - p.sh) & 63
	e := &p.data[i>>p.sh]
	*e = *e&^(p.mask<<s) | v<<s
}

// fill copies src's words into p, which is at least as wide. Widening
// unpacks only src's nonzero elements: a fork's first store of a wide
// value to a sparse page (mcf's node array holds one nonzero word per
// 128) skips most of the page.
func (p *page) fill(src *page) {
	if p.sh == src.sh {
		copy(p.data, src.data)
		return
	}
	for j, e := range src.data {
		for i := uint64(j) << src.sh; e != 0; i++ {
			p.put(i, e&src.mask)
			e >>= 64 >> src.sh
		}
	}
}

// Mem is the minimal memory interface the Machine needs. Addresses are
// byte addresses; accesses are 8-byte-word granular (addr>>3 selects the
// word, low bits are ignored — the workloads keep data 8-byte aligned).
type Mem interface {
	Read(addr uint64) uint64
	Write(addr uint64, v uint64)
}

// Memory is a sparse paged memory of 64-bit words, each page packed at
// the width its values need. The zero value is not usable; call
// NewMemory.
type Memory struct {
	pages map[uint64]*page

	// last is the page Write wrote last, at page index lastIdx, so a
	// setup's sequential writes skip the page map. Only Write sets it:
	// Read and Fork never write to the Memory they are called on, so
	// any number of goroutines may fork one frozen image at once.
	last    *page
	lastIdx uint64
}

// NewMemory returns an empty memory; all words read as zero.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

// Fork returns a copy-on-write copy of m: reads are served from m's
// pages until the fork first writes a page, which is then copied at its
// current width. The parent must not be written after the first Fork —
// the prepared-workload images the experiment harness forks per run are
// frozen by contract (exp.Prepared is immutable once built), so runs
// start from identical memory without re-executing the workload's setup,
// removing the dominant per-run allocation cost the profile attributed to
// setup.
func (m *Memory) Fork() *Memory {
	pages := make(map[uint64]*page, len(m.pages)+8)
	for k, v := range m.pages {
		pages[k] = v
	}
	return &Memory{pages: pages}
}

// Read returns the 64-bit word containing addr.
func (m *Memory) Read(addr uint64) uint64 {
	w := addr >> 3
	p := m.pages[w>>pageShift]
	if p == nil {
		return 0
	}
	return p.get(w & pageMask)
}

// Write stores v into the 64-bit word containing addr.
func (m *Memory) Write(addr uint64, v uint64) {
	w := addr >> 3
	idx := w >> pageShift
	p := m.last
	if p == nil || idx != m.lastIdx || v > p.mask {
		p = m.writable(idx, v)
		m.last, m.lastIdx = p, idx
	}
	p.put(w&pageMask, v)
}

// writable returns the page at idx as one m may write and that holds v.
// A missing page becomes a zero page at v's width. A page m does not own
// (a fork shares it with its parent) or that is too narrow for v is
// replaced by a copy at the wider of its own width and v's.
func (m *Memory) writable(idx, v uint64) *page {
	p := m.pages[idx]
	if p != nil && p.owner == m && v <= p.mask {
		return p
	}
	sh := fit(v)
	if p != nil {
		sh = min(sh, p.sh)
	}
	q := &page{owner: m, data: make([]uint64, pageWords>>sh), mask: ^uint64(0) >> (64 - 64>>sh), sh: sh}
	if p != nil {
		q.fill(p)
	}
	m.pages[idx] = q
	return q
}

// Footprint reports the number of allocated pages (for tests/diagnostics).
func (m *Memory) Footprint() int { return len(m.pages) }

// Overlay is a copy-on-write view over a base memory. Writes land in the
// overlay and are visible to subsequent overlay reads; the base is never
// modified. This is the containment mechanism for the look-ahead thread:
// its dirty lines live here and are discarded (Reset) on reboot, exactly
// like the paper's discard-on-eviction private caches, except we never
// lose overlay data to eviction (a fidelity note recorded in DESIGN.md).
type Overlay struct {
	Base  Mem
	dirty map[uint64]uint64 // word address -> value
}

// NewOverlay returns an overlay over base with no local writes.
func NewOverlay(base Mem) *Overlay {
	return &Overlay{Base: base, dirty: make(map[uint64]uint64)}
}

// Read returns the overlay value if written, else the base value.
func (o *Overlay) Read(addr uint64) uint64 {
	if v, ok := o.dirty[addr>>3]; ok {
		return v
	}
	return o.Base.Read(addr)
}

// Write records v in the overlay only.
func (o *Overlay) Write(addr uint64, v uint64) {
	o.dirty[addr>>3] = v
}

// Reset discards all overlay writes (look-ahead reboot).
func (o *Overlay) Reset() {
	if len(o.dirty) > 0 {
		o.dirty = make(map[uint64]uint64)
	}
}

// DirtyWords reports how many distinct words the overlay holds.
func (o *Overlay) DirtyWords() int { return len(o.dirty) }
