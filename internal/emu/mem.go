// Package emu provides the functional (architectural) emulator for the isa
// package: a paged 64-bit word memory that stores each page at the width
// its values need, and can freeze into immutable pages shared by content,
// an overlay memory used to contain look-ahead speculation, and a Machine
// that executes one instruction per Step, producing the dynamic record
// stream every timing model consumes.
package emu

import (
	mathbits "math/bits"
	"slices"
	"sync"
)

const (
	pageShift = 12 // 4096 words per page: 4 KiB at 8 bits a word, 32 KiB at 64
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1
)

// page holds 4096 words at the narrowest of 8, 16, 32 or 64 bits a word
// that holds every value written to it so far; most workload pages hold
// only small values. 1<<sh elements of data share one uint64, element k
// at bit (k mod 1<<sh) * (64>>sh) of data[k>>sh]. A dense page (idx nil)
// stores word i as element i. A write that does not fit widens the page
// (see Memory.writable); a page never narrows. A sparse page stores only
// its nonzero words, in word order, and idx finds them; only Freeze makes
// one, and a frozen page is never written.
type page struct {
	owner *Memory      // the only Memory that may write the page; nil once frozen
	data  []uint64     // the packed elements
	idx   *sparseIndex // a sparse page's index; nil for a dense page
	mask  uint64       // the largest value a word holds: 1<<(64>>sh) - 1
	sh    uint8        // log2 of elements per uint64: 3 (8-bit) down to 0 (64-bit)
}

// sparseIndex locates a sparse page's nonzero words: bit i&63 of
// bits[i>>6] is set when word i is nonzero, and rank[j] counts the
// nonzero words before word j*64.
type sparseIndex struct {
	bits [pageWords / 64]uint64
	rank [pageWords / 64]uint16
}

// indexBytes is the size of a sparseIndex.
const indexBytes = pageWords/64*8 + pageWords/64*2

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
	if x := p.idx; x != nil {
		b := x.bits[i>>6&63]
		if b>>(i&63)&1 == 0 {
			return 0
		}
		i = uint64(x.rank[i>>6&63]) + uint64(mathbits.OnesCount64(b&(1<<(i&63)-1)))
	}
	return p.elem(i)
}

// elem returns element k.
func (p *page) elem(k uint64) uint64 {
	return p.data[k>>p.sh] >> (k << (6 - p.sh) & 63) & p.mask
}

// put stores v, which must fit the page's width, into element k of a
// page being written or built.
func (p *page) put(k, v uint64) {
	s := k << (6 - p.sh) & 63
	e := &p.data[k>>p.sh]
	*e = *e&^(p.mask<<s) | v<<s
}

// each calls f with the index and value of each nonzero word of p, in
// word order. It unpacks only p's nonzero elements.
func (p *page) each(f func(i, v uint64)) {
	if x := p.idx; x != nil {
		k := uint64(0)
		for j, b := range x.bits {
			for ; b != 0; b &= b - 1 {
				f(uint64(j)<<6|uint64(mathbits.TrailingZeros64(b)), p.elem(k))
				k++
			}
		}
		return
	}
	for j, e := range p.data {
		for i := uint64(j) << p.sh; e != 0; i++ {
			if v := e & p.mask; v != 0 {
				f(i, v)
			}
			e >>= 64 >> p.sh
		}
	}
}

// fill copies src's words into p, a zero dense page at least as wide.
// Unless src is dense at p's width, it unpacks only src's nonzero
// elements: a fork's first store to a page of mcf's node array, which
// holds one nonzero word per 128, skips most of the page.
func (p *page) fill(src *page) {
	if src.idx == nil && p.sh == src.sh {
		copy(p.data, src.data)
		return
	}
	src.each(p.put)
}

// frozen returns an unowned copy of p, a dense page, with a hash of its
// packed elements. The copy is sparse when that takes under half of p's
// bytes, and shares p's data otherwise.
func (p *page) frozen() (*page, uint64) {
	// One pass over the elements hashes them and counts the nonzero
	// words: a word is nonzero when the sum below carries into its top
	// bit or the top bit is set.
	top := ^uint64(0) / p.mask * (p.mask>>1 + 1)
	n, h := 0, uint64(p.sh)
	for _, e := range p.data {
		n += mathbits.OnesCount64((e&^top + ^top | e) & top)
		h = (h ^ e) * 0x9e37_79b9_7f4a_7c15
	}
	q := &page{data: p.data, mask: p.mask, sh: p.sh}
	elems := (n + 1<<p.sh - 1) >> p.sh
	if 2*(indexBytes+8*elems) >= 8*len(p.data) {
		return q, h
	}
	q.data, q.idx = make([]uint64, elems), new(sparseIndex)
	k := uint64(0)
	p.each(func(i, v uint64) {
		q.idx.bits[i>>6] |= 1 << (i & 63)
		q.put(k, v)
		k++
	})
	r := uint16(0)
	for j, b := range q.idx.bits {
		q.idx.rank[j] = r
		r += uint16(mathbits.OnesCount64(b))
	}
	return q, h
}

// equal reports whether p and q hold the same words in the same form.
func (p *page) equal(q *page) bool {
	if p.sh != q.sh || (p.idx == nil) != (q.idx == nil) || p.idx != nil && p.idx.bits != q.idx.bits {
		return false
	}
	return slices.Equal(p.data, q.data)
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
	// setup's sequential writes skip the page map. Only Write sets it,
	// and Freeze clears it: Read and Fork never write to the Memory they
	// are called on, so any number of goroutines may fork one frozen
	// image at once.
	last    *page
	lastIdx uint64
}

// NewMemory returns an empty memory; all words read as zero.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

// Fork returns a copy-on-write copy of m: reads are served from m's
// pages until the fork first writes a page, which is then copied at its
// current width. The parent must not be written after the first Fork
// unless it was frozen first (see Freeze). The prepared-workload images
// the experiment harness forks per run are frozen (exp.Prepared.Image),
// so runs start from identical memory without re-executing the
// workload's setup.
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
// (a frozen page, or one a fork shares with its parent) or that is too
// narrow for v is replaced by a dense copy at the wider of its own width
// and v's.
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

// Freeze makes every page of m immutable. Each page it freezes becomes
// sparse where that takes under half its dense bytes, and is then
// replaced by t's page of the same content, which t adds if it has none;
// a nil t shares pages within m only. Pages already frozen stay as they
// are. Freeze changes m's page map and write cache, never a page, so it
// may run beside Freezes of other memories through t and beside readers
// of the pages m holds. Afterwards m is written like a fork: each write
// copies its page first, so m may be written even after it is forked.
func (m *Memory) Freeze(t *PageTable) {
	if t == nil {
		t = new(PageTable)
	}
	m.last = nil
	t.mu.Lock()
	defer t.mu.Unlock()
	for idx, p := range m.pages {
		if p.owner != nil {
			m.pages[idx] = t.intern(p.frozen())
		}
	}
}

// Footprint reports the number of allocated pages (for tests/diagnostics).
func (m *Memory) Footprint() int { return len(m.pages) }

// NonzeroWords calls f with the address and value of every nonzero word
// of m, page by page in no fixed page order (for tests/diagnostics).
func (m *Memory) NonzeroWords(f func(addr, v uint64)) {
	for idx, p := range m.pages {
		p.each(func(i, v uint64) { f((idx<<pageShift|i)<<3, v) })
	}
}

// SharesPage reports whether m and o hold one page, the same page object,
// at addr (for tests/diagnostics).
func (m *Memory) SharesPage(o *Memory, addr uint64) bool {
	p := m.pages[addr>>(pageShift+3)]
	return p != nil && p == o.pages[addr>>(pageShift+3)]
}

// PageTable interns frozen pages by content: memories frozen through one
// table hold each distinct page once, however many pages of theirs carry
// it. The zero value is an empty table. A PageTable is safe for
// concurrent use, and keeps every page it interns for its own life.
type PageTable struct {
	mu    sync.Mutex
	pages map[uint64][]*page // by content hash
}

// Len reports the number of distinct pages t holds.
func (t *PageTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, ps := range t.pages {
		n += len(ps)
	}
	return n
}

// intern returns t's page equal to p, whose hash is h, adding p if t
// has none. t.mu must be held.
func (t *PageTable) intern(p *page, h uint64) *page {
	for _, q := range t.pages[h] {
		if q.equal(p) {
			return q
		}
	}
	if t.pages == nil {
		t.pages = make(map[uint64][]*page)
	}
	t.pages[h] = append(t.pages[h], p)
	return p
}

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
