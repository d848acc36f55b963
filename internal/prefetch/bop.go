// Package prefetch implements the hardware prefetchers used in the paper's
// evaluation: the Best-Offset Prefetcher (BOP, Michaud HPCA'16) configured
// as in Table I (256 RR entries, 52 offsets) and a per-PC stride
// prefetcher with degree 4 (the tuned L1 prefetcher in Sec. IV-C1).
package prefetch

// bopOffsets are the 52 candidate offsets of the form 2^i * 3^j * 5^k up
// to 256, as in the original BOP paper.
var bopOffsets = buildOffsets()

func buildOffsets() []int {
	var offs []int
	for n := 1; n <= 256; n++ {
		m := n
		for _, f := range []int{2, 3, 5} {
			for m%f == 0 {
				m /= f
			}
		}
		if m == 1 {
			offs = append(offs, n)
		}
	}
	return offs
}

// Learning constants. The original design uses SCOREMAX=31/ROUNDMAX=100;
// we scale them down so learning converges within simulation budgets of a
// few hundred thousand instructions (the paper simulates tens of millions).
const (
	bopScoreMax = 20
	bopRoundMax = 16
	bopBadScore = 1
)

// BOP is the Best-Offset Prefetcher. It observes the block-address stream
// at one cache level and emits prefetch block addresses.
type BOP struct {
	rrTable []uint64 // recent-request table of base block addresses
	rrMask  uint64

	scores    []int
	testIdx   int
	round     int
	bestOff   int
	bestScore int

	pending []pendingFill // fills not yet completed (timeliness learning)

	Issued uint64
}

type pendingFill struct {
	base uint64 // demand-stream base address to insert at completion
	done uint64
}

// NewBOP returns a BOP with an RR table of rrEntries (must be a power of
// two; Table I uses 256).
func NewBOP(rrEntries int) *BOP {
	if rrEntries&(rrEntries-1) != 0 {
		panic("prefetch: RR entries must be a power of two")
	}
	return &BOP{
		rrTable: make([]uint64, rrEntries),
		rrMask:  uint64(rrEntries - 1),
		scores:  make([]int, len(bopOffsets)),
		// Start prefetching next-line (offset 1) while learning, as the
		// original design does.
		bestOff:   1,
		bestScore: bopBadScore + 1,
	}
}

func (b *BOP) rrInsert(block uint64) {
	b.rrTable[block&b.rrMask] = block
}

func (b *BOP) rrHit(block uint64) bool {
	return b.rrTable[block&b.rrMask] == block
}

// Observe processes one demand access (block address) at the attached
// level at cycle now and returns a prefetch block address, or ok=false.
// Call OnFill for every miss and prefetch issue so the RR table learns
// timely offsets.
func (b *BOP) Observe(block uint64, now uint64) (pref uint64, ok bool) {
	b.drainFills(now)
	// Learning: test one offset per access, round-robin.
	d := bopOffsets[b.testIdx]
	if b.rrHit(block - uint64(d)) {
		b.scores[b.testIdx]++
		if b.scores[b.testIdx] >= bopScoreMax {
			b.adopt(b.testIdx)
		}
	}
	b.testIdx++
	if b.testIdx == len(bopOffsets) {
		b.testIdx = 0
		b.round++
		if b.round >= bopRoundMax {
			best := 0
			for i, s := range b.scores {
				if s > b.scores[best] {
					best = i
				}
			}
			b.adopt(best)
		}
	}

	if b.bestScore <= bopBadScore {
		return 0, false // prefetch off: learned offset too weak
	}
	b.Issued++
	return block + uint64(b.bestOff), true
}

// adopt ends the learning round and switches to the given offset.
func (b *BOP) adopt(idx int) {
	b.bestOff = bopOffsets[idx]
	b.bestScore = b.scores[idx]
	for i := range b.scores {
		b.scores[i] = 0
	}
	b.round = 0
	b.testIdx = 0
}

// OnFill registers a fill that will complete at fillDone. For prefetch
// fills the inserted base is block - bestOffset (the demand access that
// triggered it), as in the original design; demand fills insert the block
// itself. The insertion becomes visible to Observe only once the fill has
// completed, which is how BOP learns timely (not merely correct) offsets.
func (b *BOP) OnFill(block uint64, wasPrefetch bool, fillDone uint64) {
	base := block
	if wasPrefetch {
		base = block - uint64(b.bestOff)
	}
	b.pending = append(b.pending, pendingFill{base: base, done: fillDone})
}

// drainFills moves completed fills into the RR table.
func (b *BOP) drainFills(now uint64) {
	w := 0
	for _, p := range b.pending {
		if p.done <= now {
			b.rrInsert(p.base)
		} else {
			b.pending[w] = p
			w++
		}
	}
	b.pending = b.pending[:w]
}

// BestOffset reports the currently adopted offset (for tests/diagnostics).
func (b *BOP) BestOffset() int { return b.bestOff }
