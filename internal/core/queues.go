package core

// BOQEntry is one Branch Outcome Queue entry: a direction bit and its
// push index.
type BOQEntry struct {
	Taken bool
	Index uint64 // monotonically increasing push index (epoch)
}

// BOQ is the Branch Outcome Queue: a bounded FIFO of branch outcomes
// written by the look-ahead thread at commit and consumed by the main
// thread at fetch. Its occupancy *is* the look-ahead depth (in dynamic
// basic blocks), and its size bounds run-away prefetching (Table I: 512
// entries).
type BOQ struct {
	buf        []BOQEntry
	head, size int
	pushes     uint64
	pops       uint64

	Overflows uint64 // push attempts while full (LT stalls)
}

// NewBOQ returns an empty BOQ with the given capacity.
func NewBOQ(capacity int) *BOQ {
	return &BOQ{buf: make([]BOQEntry, capacity)}
}

// Full reports whether a push would overflow (the LT must stall).
func (q *BOQ) Full() bool { return q.size == len(q.buf) }

// Len reports current occupancy (the look-ahead depth in basic blocks).
func (q *BOQ) Len() int { return q.size }

// PushIndex reports the index the next pushed entry will get.
func (q *BOQ) PushIndex() uint64 { return q.pushes }

// PopIndex reports the index of the next entry to be popped.
func (q *BOQ) PopIndex() uint64 { return q.pops }

// Push appends an outcome; it returns false (and counts an overflow) when
// full.
func (q *BOQ) Push(taken bool) bool {
	if q.Full() {
		q.Overflows++
		return false
	}
	idx := q.head + q.size
	if idx >= len(q.buf) {
		idx -= len(q.buf)
	}
	q.buf[idx] = BOQEntry{Taken: taken, Index: q.pushes}
	q.size++
	q.pushes++
	return true
}

// Pop removes and returns the oldest outcome.
func (q *BOQ) Pop() (BOQEntry, bool) {
	if q.size == 0 {
		return BOQEntry{}, false
	}
	e := q.buf[q.head]
	if q.head++; q.head == len(q.buf) {
		q.head = 0
	}
	q.size--
	q.pops++
	return e, true
}

// Flush empties the queue (look-ahead reboot) and realigns push/pop
// indices.
func (q *BOQ) Flush() {
	q.head, q.size = 0, 0
	q.pops = q.pushes
}

// FQKind tags Footnote Queue payload types (Sec. III-A(ii), Fig. 8).
type FQKind uint8

// Footnote payload kinds.
const (
	FQL1Prefetch FQKind = iota // L1 prefetch target address
	FQIndirect                 // indirect branch target
	FQValue                    // value-reuse payload
)

// FQEntry is one Footnote Queue entry. Epoch is the BOQ push index current
// when the LT generated the hint; the MT releases prefetch hints when it
// pops that BOQ entry (just-in-time prefetching, Sec. III-A "¯").
type FQEntry struct {
	Kind  FQKind
	PC    int    // generating static instruction (matching key)
	Addr  uint64 // prefetch address / value payload
	Epoch uint64
}

// FQ is the Footnote Queue: wider, lower-rate hint traffic from LT to MT
// (Table I: 128 entries). Overflowing hints are dropped — they are
// semantically hints, so dropping is safe.
type FQ struct {
	buf        []FQEntry
	head, size int

	Drops uint64
}

// NewFQ returns an empty FQ with the given capacity.
func NewFQ(capacity int) *FQ {
	return &FQ{buf: make([]FQEntry, capacity)}
}

// Len reports current occupancy.
func (q *FQ) Len() int { return q.size }

// Push appends a hint, dropping it (with a count) when full.
func (q *FQ) Push(e FQEntry) bool {
	if q.size == len(q.buf) {
		q.Drops++
		return false
	}
	idx := q.head + q.size
	if idx >= len(q.buf) {
		idx -= len(q.buf)
	}
	q.buf[idx] = e
	q.size++
	return true
}

// Peek returns the oldest entry without removing it.
func (q *FQ) Peek() (FQEntry, bool) {
	if q.size == 0 {
		return FQEntry{}, false
	}
	return q.buf[q.head], true
}

// Pop removes and returns the oldest entry.
func (q *FQ) Pop() (FQEntry, bool) {
	e, ok := q.Peek()
	if ok {
		if q.head++; q.head == len(q.buf) {
			q.head = 0
		}
		q.size--
	}
	return e, ok
}

// Flush empties the queue (look-ahead reboot).
func (q *FQ) Flush() { q.head, q.size = 0, 0 }
