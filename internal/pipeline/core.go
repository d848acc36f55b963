package pipeline

import (
	"math"

	"r3dla/internal/branch"
	"r3dla/internal/cache"
	"r3dla/internal/emu"
	"r3dla/internal/isa"
	"r3dla/internal/stats"
)

// robEntry is one in-flight instruction.
type robEntry struct {
	d             emu.DynInst
	seq           uint64 // core-local monotonically increasing id
	live          bool
	dispatchCycle uint64
	issued        bool
	execDone      uint64
	mispred       bool // direction or target mispredicted at fetch

	valPred    bool
	valCorrect bool
	skipVal    bool

	// Wakeup state. pending counts the register producers that had not
	// issued when this entry dispatched and still have not; readyAt is
	// the latest cycle a producer's value arrives. waiters heads the
	// list of consumers to wake when this entry issues: a link is
	// consumerSlot<<1 | source, and link (s, i) continues at
	// rob[s].nextWaiter[i].
	pending    uint8
	readyAt    uint64
	waiters    int32
	nextWaiter [2]int32

	fwd    int32 // ROB slot of forwarding store (-1 = none)
	fwdSeq uint64

	intDest bool
	fpDest  bool
}

// storeRef is one in-flight store: its ROB slot and the 8-byte word it
// writes.
type storeRef struct {
	slot int32
	word uint64
}

type fqEntry struct {
	d          emu.DynInst
	fetchCycle uint64
	mispred    bool
}

// Core is one simulated core. Construct with New, then Run (or Tick in a
// multi-core harness such as the DLA driver).
type Core struct {
	Cfg   Config
	Feed  Feeder
	Dir   DirectionSource
	Vals  ValueSource
	Hooks Hooks

	L1I, L1D *cache.Cache

	btb *branch.BTB
	ras *branch.RAS

	// fetch state. The fetch queue is a fixed ring (capacity
	// FetchBufSize): fetch pushes at the tail, dispatch pops at the
	// head, and no per-cycle slice reallocation ever happens — the seed
	// implementation's append/reslice churn here accounted for ~98% of
	// the simulator's allocated objects.
	fetchQ        []fqEntry
	fqHead, fqLen int
	lastBlock     uint64
	haveBlock     bool
	fetchStall    uint64 // no fetch before this cycle
	blockedOnSpec bool   // stop fetch until the mispredicted branch issues
	feederDone    bool

	// hintScratch is the DynInst handed to the TargetHint hook: the
	// feeder's instruction with this fetch's Tag stamp. Passing &local
	// would make every fetched instruction escape to the heap — one
	// allocation per fetch, the dominant object count in the seed's heap
	// profile — so fetch copies into this core-owned slot instead.
	hintScratch emu.DynInst

	// backend state
	rob        []robEntry
	head, tail int // ring indices
	count      int
	lsqCount   int
	seqCounter uint64
	lastWriter [isa.NumRegs]int32
	writerSeq  [isa.NumRegs]uint64
	freeInt    int
	freeFP     int
	scoreboard [isa.NumRegs]bool // value-validated marks (skip-validation)

	// waitQ holds the ROB slots of the armed entries, the only entries
	// issue looks at: exactly the live, unissued entries with no pending
	// producer, skip-validation entries included, in ring order from
	// head (program order).
	waitQ []int32
	// armed collects, during one issue walk, the consumers whose last
	// pending producer issued in it; the walk then merges them into
	// waitQ (mergeArmed).
	armed []int32
	// issueWake is the earliest cycle at which the issue walk can do
	// anything; issue returns at once before it (see issue).
	issueWake uint64
	// stq is the FIFO of in-flight stores in program order, a ring of
	// capacity ROB: dispatch pushes, commit pops, and a dispatching load
	// searches it youngest first for a store to forward from.
	stq           []storeRef
	stHead, stLen int

	now uint64

	M Metrics
}

// New constructs a core over the given caches with its own BTB/RAS.
func New(cfg Config, feed Feeder, dir DirectionSource, l1i, l1d *cache.Cache) *Core {
	ringCap := cfg.FetchBufSize
	if ringCap < 1 {
		ringCap = 1
	}
	c := &Core{
		Cfg:     cfg,
		Feed:    feed,
		Dir:     dir,
		L1I:     l1i,
		L1D:     l1d,
		btb:     branch.NewBTB(cfg.BTBBits),
		ras:     branch.NewRAS(cfg.RASEntries),
		fetchQ:  make([]fqEntry, ringCap),
		rob:     make([]robEntry, cfg.ROB),
		waitQ:   make([]int32, 0, cfg.ROB),
		armed:   make([]int32, 0, cfg.ROB),
		stq:     make([]storeRef, cfg.ROB),
		freeInt: cfg.IntPRF - isa.NumIntRegs,
		freeFP:  cfg.FPPRF - isa.NumFPRegs,
	}
	for i := range c.lastWriter {
		c.lastWriter[i] = -1
	}
	if cfg.TrackFetchQOcc {
		c.M.FetchQOcc = stats.NewHistogram(cfg.FetchBufSize)
	}
	if cfg.TrackSupply {
		c.M.Supply = stats.NewHistogram(cfg.FetchWidth)
	}
	if cfg.TrackDemand {
		c.M.Demand = stats.NewHistogram(cfg.DecodeWidth)
	}
	return c
}

// Now reports the core's current cycle.
func (c *Core) Now() uint64 { return c.now }

// Done reports whether the core has drained: feeder exhausted and no
// in-flight work.
func (c *Core) Done() bool {
	return c.feederDone && c.fqLen == 0 && c.count == 0
}

// wrap maps an index in [0, 2n) into a ring of size n.
func wrap(i, n int) int {
	if i >= n {
		i -= n
	}
	return i
}

// fqPop drops the head entry of the fetch ring.
func (c *Core) fqPop() {
	c.fqHead = wrap(c.fqHead+1, len(c.fetchQ))
	c.fqLen--
}

// Tick advances the core by one cycle. Stages run commit -> issue ->
// dispatch -> fetch so that same-cycle resource frees are visible
// upstream, matching the usual reverse-order stage evaluation.
func (c *Core) Tick() {
	c.commit()
	c.issue()
	c.dispatch()
	c.fetch()
	if c.M.FetchQOcc != nil {
		c.M.FetchQOcc.Add(c.fqLen)
	}
	c.now++
	c.M.Cycles++
}

// StallTick advances the clock one cycle without doing any work. The DLA
// driver uses it to stall the look-ahead core (full BOQ, reboot window)
// while keeping both cores on the same clock.
func (c *Core) StallTick() {
	c.now++
	c.M.Cycles++
	if c.M.FetchQOcc != nil {
		c.M.FetchQOcc.Add(c.fqLen)
	}
}

// Flush squashes all in-flight work: the fetch queue, every ROB entry,
// the wait queue and the store FIFO are discarded and resource counts
// reset. The feeder, caches, predictors and metrics are untouched. The
// DLA reboot path uses this to reset the look-ahead core.
func (c *Core) Flush() {
	c.fqHead, c.fqLen = 0, 0
	for i := range c.rob {
		c.rob[i].live = false
	}
	c.head, c.tail, c.count = 0, 0, 0
	c.waitQ = c.waitQ[:0]
	c.issueWake = 0
	c.stHead, c.stLen = 0, 0
	c.lsqCount = 0
	c.freeInt = c.Cfg.IntPRF - isa.NumIntRegs
	c.freeFP = c.Cfg.FPPRF - isa.NumFPRegs
	for i := range c.lastWriter {
		c.lastWriter[i] = -1
		c.scoreboard[i] = false
	}
	c.blockedOnSpec = false
	c.haveBlock = false
	c.feederDone = false
}

// DeadlockGuard is the cycle past which a run still short of budget
// committed instructions gives up and sets Metrics.Deadlocked. Core.Run
// and core.System.RunContext both stop there.
func DeadlockGuard(budget uint64) uint64 { return budget*1000 + 1_000_000 }

// Run executes until the feeder drains or maxInsts commit. It returns the
// metrics (also available as c.M).
func (c *Core) Run(maxInsts uint64) *Metrics {
	guard := DeadlockGuard(maxInsts)
	for !c.Done() && (maxInsts == 0 || c.M.Committed < maxInsts) {
		c.Tick()
		if c.M.Cycles > guard {
			c.M.Deadlocked = true
			break
		}
	}
	return &c.M
}

// ---------------------------------------------------------------- commit

func (c *Core) commit() {
	for n := 0; n < c.Cfg.CommitWidth && c.count > 0; n++ {
		e := &c.rob[c.head]
		if !e.issued || e.execDone > c.now {
			return
		}
		if e.d.In.Op.IsStore() {
			c.L1D.Access(e.d.EA, true, false, c.now)
			c.stHead = wrap(c.stHead+1, len(c.stq)) // commit is in order: the FIFO head
			c.stLen--
		}
		if e.d.In.Op.IsMem() {
			c.lsqCount--
		}
		if e.intDest {
			c.freeInt++
		}
		if e.fpDest {
			c.freeFP++
		}
		if c.Hooks.OnCommit != nil {
			c.Hooks.OnCommit(&e.d, c.now)
		}
		e.live = false
		c.head = wrap(c.head+1, len(c.rob))
		c.count--
		c.M.Committed++
	}
}

// ----------------------------------------------------------------- issue

// issue walks the wait queue oldest first and sends up to IssueWidth
// ready entries to execution under the per-FU limits. Every entry in the
// queue is armed (no producer it linked to at dispatch is still
// pending), so it is ready once its latest value has arrived (readyAt <=
// now). A skip-validation entry completes without execution when the
// walk reaches it and uses no issue width. Every entry in the queue
// dispatched in an earlier cycle (dispatch runs after issue), so none is
// too young to consider. The walk compacts the queue in place.
//
// An entry that links to a producer joins the queue only when its last
// pending producer issues: issueOne collects it in armed, and the walk
// merges it in by ring position once it ends. It could not issue in the
// walk that armed it anyway: every producer's execDone is at least now+1
// (every execLatency is at least 1, an L1 access takes 3 cycles, and a
// forwarded load completes at now+1 or now+2), so a consumer armed in
// this walk has readyAt > now. The queue therefore issues the same
// entries in the same order as a walk over every unissued entry.
//
// The walk also sets issueWake, and issue does nothing before it. The
// wake is the earliest cycle a queued entry can issue: its readyAt, or
// the next cycle for one left behind for want of a functional unit; the
// next cycle too if the walk stopped at IssueWidth. An armed entry never
// changes its readyAt, and only a walk arms an entry, so no walk before
// the wake would issue or complete anything. Dispatch lowers the wake
// for the entries it adds (tryDispatch), and Flush clears it.
func (c *Core) issue() {
	if c.now < c.issueWake {
		return
	}
	fuLeft := [3]int{c.Cfg.IntFUs, c.Cfg.MemFUs, c.Cfg.FPFUs}
	issued := 0
	wake := uint64(math.MaxUint64)
	q := c.waitQ
	kept, k := 0, 0
	for ; k < len(q) && issued < c.Cfg.IssueWidth; k++ {
		e := &c.rob[q[k]]
		if e.skipVal {
			e.issued = true
			e.execDone = e.dispatchCycle + 1
			continue
		}
		if e.readyAt <= c.now {
			if fu := fuOf(e.d.In.Op.Class()); fu == fuNone || fuLeft[fu] > 0 {
				if fu != fuNone {
					fuLeft[fu]--
				}
				issued++
				wake = min(wake, c.issueOne(e))
				continue
			}
		}
		wake = min(wake, max(e.readyAt, c.now+1))
		q[kept] = q[k]
		kept++
	}
	if k < len(q) {
		wake = c.now + 1
	}
	q = q[:kept+copy(q[kept:], q[k:])]
	if len(c.armed) > 0 {
		q = c.mergeArmed(q)
	}
	c.issueWake = wake
	c.waitQ = q
}

// mergeArmed inserts the entries armed in this walk into the compacted
// wait queue q by ring position, each from the back, and returns the
// queue. Ordering reads no ROB entry: a slot below head lies a lap
// further round the ring, so slot, plus ROB if below head, orders as the
// distance from head does. A walk arms few entries, most of them younger
// than every queued one (over BenchmarkCoreGrid, 1.7 per walk that arms
// any, and under one queued entry moved per walk), and q's capacity
// (ROB) holds every live entry.
func (c *Core) mergeArmed(q []int32) []int32 {
	head, n := int32(c.head), int32(len(c.rob))
	pos := func(slot int32) int32 {
		if slot < head {
			slot += n
		}
		return slot
	}
	for _, s := range c.armed {
		p, i := pos(s), len(q)
		q = q[:i+1]
		for ; i > 0 && pos(q[i-1]) > p; i-- {
			q[i] = q[i-1]
		}
		q[i] = s
	}
	c.armed = c.armed[:0]
	return q
}

// issueOne sends e to execution, then hands its completion cycle to the
// consumers linked to it. It collects each one it arms (see issue) and
// returns the first cycle one of them can issue, MaxUint64 if none.
func (c *Core) issueOne(e *robEntry) uint64 {
	c.M.Issued++
	e.issued = true
	c.execOne(e)
	if c.Hooks.OnIssue != nil {
		c.Hooks.OnIssue(&e.d, e.dispatchCycle, e.execDone)
	}
	c.M.DispExecSum += e.execDone - e.dispatchCycle
	c.M.DispExecCount++
	wake := uint64(math.MaxUint64)
	for l := e.waiters; l >= 0; {
		w := &c.rob[l>>1]
		w.readyAt = max(w.readyAt, e.execDone)
		w.pending--
		if w.pending == 0 {
			c.armed = append(c.armed, l>>1)
			wake = min(wake, max(w.readyAt, c.now+1))
		}
		l = w.nextWaiter[l&1]
	}
	return wake
}

// execOne computes the completion time of an issuing instruction and
// performs its side effects (cache access, branch resolution scheduling).
func (c *Core) execOne(e *robEntry) {
	op := e.d.In.Op
	switch {
	case op.IsLoad():
		c.M.Loads++
		if e.fwd >= 0 {
			fe := &c.rob[e.fwd]
			if fe.live && fe.seq == e.fwdSeq {
				// Store-to-load forwarding: one cycle after the store's
				// address/data are ready. A load does not wait for the
				// store it forwards from, so the store may not have
				// issued yet; the load then completes at now+2 without
				// waiting for the store's data. That is common (37,287
				// of 90,150 forwarded loads over one cold prep plus the
				// 60k reproduce grid, both cores) and is a known
				// inaccuracy. It stays because results must stay
				// identical; fixing it moves every one of them.
				t := fe.execDone
				if !fe.issued {
					t = c.now + 1
				}
				if t < c.now {
					t = c.now
				}
				e.execDone = t + 1
				break
			}
		}
		res := c.L1D.Access(e.d.EA, false, false, c.now)
		e.execDone = res.Done
		if res.Level >= 1 && res.Level <= 4 {
			c.M.LoadLevelHits[res.Level]++
		}
		if c.Hooks.OnLoadAccess != nil {
			c.Hooks.OnLoadAccess(&e.d, res.Level, res.Done, c.now)
		}
	case op.IsStore():
		c.M.Stores++
		e.execDone = c.now + execLatency(isa.ClassStore)
	default:
		e.execDone = c.now + execLatency(op.Class())
	}

	if op.IsControl() {
		if e.mispred {
			resume := e.execDone + c.Cfg.RedirectPenalty
			if resume > c.fetchStall {
				c.fetchStall = resume
			}
			c.blockedOnSpec = false
			c.M.WrongPathDecoded += uint64(c.Cfg.DecodeWidth) * (c.Cfg.FrontendDepth + 4) / 2
			c.M.WrongPathExecuted += uint64(c.Cfg.IssueWidth) * 3
		}
		if c.Hooks.OnBranchResolve != nil {
			c.Hooks.OnBranchResolve(&e.d, e.mispred, e.execDone)
		}
	}

	if e.valPred && !e.valCorrect {
		// Wrong value prediction: replay recovery charged as a frontend
		// bubble; the architectural value is available at execDone.
		resume := e.execDone + c.Cfg.ValueReplayPenalty
		if resume > c.fetchStall {
			c.fetchStall = resume
		}
		if c.Vals != nil {
			c.Vals.OnOutcome(&e.d, false)
		}
	} else if e.valPred && c.Vals != nil {
		c.Vals.OnOutcome(&e.d, true)
	}
}

// -------------------------------------------------------------- dispatch

func (c *Core) dispatch() {
	if c.Cfg.InfiniteBackend {
		// Ideal backend: decode drains everything fetched in earlier
		// cycles.
		for c.fqLen > 0 && c.fetchQ[c.fqHead].fetchCycle < c.now {
			c.fqPop()
			c.M.Dispatched++
			c.M.Committed++
		}
		return
	}
	if c.Cfg.PerfectFrontend {
		c.dispatchPerfectFrontend()
		return
	}

	n := 0
	starved := false
	for n < c.Cfg.DecodeWidth {
		if c.fqLen == 0 || c.fetchQ[c.fqHead].fetchCycle >= c.now {
			starved = true
			break
		}
		if c.count >= c.Cfg.ROB {
			break
		}
		fe := &c.fetchQ[c.fqHead]
		if !c.tryDispatch(&fe.d, fe.mispred) {
			break
		}
		c.fqPop()
		n++
	}
	c.M.Dispatched += uint64(n)
	if starved && n < c.Cfg.DecodeWidth && c.count < c.Cfg.ROB {
		c.M.FetchBubbles += uint64(c.Cfg.DecodeWidth - n)
	}
	if c.M.Demand != nil {
		c.M.Demand.Add(n)
	}
}

// dispatchPerfectFrontend pulls directly from the feeder, bypassing fetch.
func (c *Core) dispatchPerfectFrontend() {
	n := 0
	for n < c.Cfg.DecodeWidth && c.count < c.Cfg.ROB {
		d, ok := c.Feed.Peek()
		if !ok {
			c.feederDone = true
			break
		}
		if !c.tryDispatch(d, false) {
			break
		}
		c.Feed.Advance()
		n++
	}
	c.M.Dispatched += uint64(n)
	c.M.Fetched += uint64(n)
	if c.M.Demand != nil {
		c.M.Demand.Add(n)
	}
}

// tryDispatch copies one fetched instruction into the ROB; false means a
// structural hazard (LSQ/PRF) blocks dispatch this cycle. The entry is
// filled field by field: assigning a composite literal builds the whole
// entry on the stack and then copies it.
func (c *Core) tryDispatch(src *emu.DynInst, mispred bool) bool {
	isMem := src.In.Op.IsMem()
	if isMem && c.lsqCount >= c.Cfg.LSQ {
		return false
	}
	dest := src.In.Dest()
	intDest := dest != isa.NoReg && dest != isa.RegZero && dest < isa.FPRegBase
	fpDest := dest != isa.NoReg && dest >= isa.FPRegBase
	if intDest && c.freeInt == 0 {
		return false
	}
	if fpDest && c.freeFP == 0 {
		return false
	}

	e := &c.rob[c.tail]
	c.seqCounter++
	e.d = *src
	d := &e.d
	e.seq = c.seqCounter
	e.live = true
	e.dispatchCycle = c.now
	e.issued = false
	e.execDone = 0
	e.mispred = mispred
	e.valPred, e.valCorrect, e.skipVal = false, false, false
	e.pending, e.readyAt = 0, 0
	e.waiters, e.nextWaiter = -1, [2]int32{}
	e.fwd, e.fwdSeq = -1, 0
	e.intDest, e.fpDest = intDest, fpDest
	var srcBuf [2]uint8
	srcs := d.In.Sources(srcBuf[:0])

	// Store-to-load forwarding: the youngest older store to the same word.
	if d.In.Op.IsLoad() {
		word := d.EA >> 3
		for k := c.stLen - 1; k >= 0; k-- {
			if s := c.stq[wrap(c.stHead+k, len(c.stq))]; s.word == word {
				e.fwd, e.fwdSeq = s.slot, c.rob[s.slot].seq
				break
			}
		}
	}

	// Value prediction (DLA value reuse).
	if c.Vals != nil && d.HasVal {
		if pv, ok := c.Vals.Lookup(d); ok {
			e.valPred = true
			e.valCorrect = pv == d.Val
			c.M.ValuePreds++
			if !e.valCorrect {
				c.M.ValueMispreds++
			}
			if c.Cfg.SkipValidation && d.In.Op.Class() == isa.ClassALU && c.sourcesValidated(srcs) {
				e.skipVal = true
				c.M.Skipped++
			}
		}
	}
	c.updateScoreboard(d, e.valPred)

	// Register dependencies. A producer that is skip-validated or whose
	// value was predicted correctly counts as ready at its
	// dispatchCycle+1; one that has issued, at its execDone; one that has
	// committed, at once. Any other producer has not issued: the entry
	// links itself to it and waits to be woken. A skip-validation entry
	// never reads its producers, so it links to none.
	for i, r := range srcs {
		if e.skipVal || r == isa.RegZero || c.lastWriter[r] < 0 {
			continue
		}
		p := &c.rob[c.lastWriter[r]]
		switch {
		case !p.live || p.seq != c.writerSeq[r]:
		case p.skipVal || p.valPred && p.valCorrect:
			e.readyAt = max(e.readyAt, p.dispatchCycle+1)
		case p.issued:
			e.readyAt = max(e.readyAt, p.execDone)
		default:
			e.nextWaiter[i] = p.waiters
			p.waiters = int32(c.tail)<<1 | int32(i)
			e.pending++
		}
	}

	// An entry that links to no producer, a skip-validation entry among
	// them, is armed at once: it joins the wait queue, the youngest
	// entry there, and lowers the issue wake to the first cycle it can
	// issue or complete (see issue). Any other joins when its last
	// producer issues (issueOne).
	if e.pending == 0 {
		c.issueWake = min(c.issueWake, max(e.readyAt, c.now+1))
		c.waitQ = append(c.waitQ, int32(c.tail))
	}

	if intDest {
		c.freeInt--
	}
	if fpDest {
		c.freeFP--
	}
	if dest != isa.NoReg && dest != isa.RegZero {
		c.lastWriter[dest] = int32(c.tail)
		c.writerSeq[dest] = e.seq
	}
	if isMem {
		c.lsqCount++
	}
	if d.In.Op.IsStore() {
		c.stq[wrap(c.stHead+c.stLen, len(c.stq))] = storeRef{slot: int32(c.tail), word: d.EA >> 3}
		c.stLen++
	}
	c.tail = wrap(c.tail+1, len(c.rob))
	c.count++
	return true
}

func (c *Core) sourcesValidated(srcs []uint8) bool {
	for _, r := range srcs {
		if r == isa.RegZero {
			continue
		}
		if !c.scoreboard[r] {
			return false
		}
	}
	return true
}

// updateScoreboard implements the decode-stage validation scoreboard of
// Sec. III-D1: ALU instructions producing a value prediction mark their
// destination validated; any other writer clears it.
func (c *Core) updateScoreboard(d *emu.DynInst, valPred bool) {
	dest := d.In.Dest()
	if dest == isa.NoReg || dest == isa.RegZero {
		return
	}
	c.scoreboard[dest] = valPred && d.In.Op.Class() == isa.ClassALU
}

// ----------------------------------------------------------------- fetch

func (c *Core) fetch() {
	if c.Cfg.PerfectFrontend {
		return
	}
	if c.now < c.fetchStall || c.blockedOnSpec {
		return
	}
	fetched := 0
	for fetched < c.Cfg.FetchWidth && c.fqLen < c.Cfg.FetchBufSize {
		d, ok := c.Feed.Peek()
		if !ok {
			c.feederDone = true
			break
		}
		tag := d.Tag
		if c.Hooks.FetchTag != nil {
			tag = c.Hooks.FetchTag()
		}

		// I-cache: one access per block transition.
		blk := isa.PCAddr(d.PC) >> c.L1I.BlockBits()
		if !c.haveBlock || blk != c.lastBlock {
			res := c.L1I.Access(isa.PCAddr(d.PC), false, false, c.now)
			c.lastBlock, c.haveBlock = blk, true
			if res.Level > 1 {
				// I-cache miss: fetch resumes when the fill returns.
				c.fetchStall = res.Done
				break
			}
		}

		mispred := false
		op := d.In.Op
		switch {
		case op.IsCondBranch():
			pred, ok := c.Dir.PredictAndTrain(d.PC, d.Taken, c.now)
			if !ok {
				c.M.FetchStallBOQ++
				return // direction source empty (BOQ): retry next cycle
			}
			c.M.CondBranches++
			if pred != d.Taken {
				mispred = true
				c.M.DirMispredicts++
			}
		case op.IsIndirect():
			var target int
			var okT bool
			if c.Hooks.TargetHint != nil {
				c.hintScratch = *d
				c.hintScratch.Tag = tag
				target, okT = c.Hooks.TargetHint(&c.hintScratch)
			}
			if !okT {
				if op == isa.RET {
					target, okT = c.ras.Pop()
				} else {
					target, okT = c.btb.Lookup(d.PC)
				}
			} else if op == isa.RET {
				c.ras.Pop() // keep the stack aligned even when hinted
			}
			if op == isa.CALR {
				c.ras.Push(d.PC + 1)
			}
			if !okT || target != d.NextPC {
				mispred = true
				c.M.TargetMispredicts++
			}
			c.btb.Update(d.PC, d.NextPC)
		case op == isa.CALL:
			c.ras.Push(d.PC + 1)
		}

		// The fetch ring's tail slot is free (fqLen < FetchBufSize): copy
		// the instruction straight into it, then consume it.
		fe := &c.fetchQ[wrap(c.fqHead+c.fqLen, len(c.fetchQ))]
		fe.d = *d
		fe.d.Tag = tag
		fe.fetchCycle, fe.mispred = c.now, mispred
		c.fqLen++
		c.Feed.Advance()
		c.M.Fetched++
		fetched++

		if mispred {
			c.blockedOnSpec = true // wrong path beyond here: stall until resolve
			break
		}
		if op.IsControl() && fe.d.Taken {
			c.haveBlock = false // redirect: next fetch touches a new block
			if !c.Cfg.NoFetchBreakOnTaken {
				break
			}
		}
	}
	if c.M.Supply != nil {
		c.M.Supply.Add(fetched)
	}
}
