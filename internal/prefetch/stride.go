package prefetch

// Stride is a classic per-PC stride prefetcher (reference-prediction
// table): the "modified stride prefetcher" baseline the paper tunes to 32
// entries with prefetch degree 4 (Sec. IV-C1 footnote).
type Stride struct {
	entries []strideEntry
	mask    int
	degree  int
	Issued  uint64
}

type strideEntry struct {
	pc       int32
	lastAddr uint64
	stride   int64
	conf     int8 // 2-bit confidence
	valid    bool
}

// NewStride returns a stride prefetcher with the given table size (power
// of two) and prefetch degree.
func NewStride(entries, degree int) *Stride {
	if entries&(entries-1) != 0 {
		panic("prefetch: stride entries must be a power of two")
	}
	return &Stride{entries: make([]strideEntry, entries), mask: entries - 1, degree: degree}
}

// Observe processes one load (pc, byte address) and appends up to degree
// prefetch byte addresses to out, returning the extended slice.
func (s *Stride) Observe(pc int, addr uint64, out []uint64) []uint64 {
	e := &s.entries[(pc>>0)&s.mask]
	if !e.valid || e.pc != int32(pc) {
		*e = strideEntry{pc: int32(pc), lastAddr: addr, valid: true}
		return out
	}
	stride := int64(addr) - int64(e.lastAddr)
	if stride == e.stride && stride != 0 {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		if e.conf > 0 {
			e.conf--
		} else {
			e.stride = stride
		}
	}
	e.lastAddr = addr
	if e.conf >= 2 && e.stride != 0 {
		for i := 1; i <= s.degree; i++ {
			out = append(out, uint64(int64(addr)+e.stride*int64(i)))
			s.Issued++
		}
	}
	return out
}
