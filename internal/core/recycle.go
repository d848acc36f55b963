package core

// Recycle is the skeleton re-cycling controller of Sec. III-E2 (Fig. 7).
// It detects the current "loop" (a backward loop branch, or a hot call
// site standing in for a recursive function), cycles the look-ahead
// thread through the available skeleton versions measuring MT speed, and
// caches the best version per loop in the Loop-Config Table (LCT).
//
// Trial progress is kept per loop, so programs that interleave several
// short loop phases still complete their sweeps: each re-entry resumes
// the loop's trial where it left off (measurement accumulates only over
// contiguous stretches of the same loop).
type Recycle struct {
	NumVersions int
	TrialInsts  uint64 // committed MT instructions measured per version

	lct lct

	cur     int // active skeleton version
	curLoop int // current loop branch PC (-1 = none)

	trials map[int]*trialState
	active *trialState // trial of curLoop, nil when decided
	lastM  measure     // measurement checkpoint within current loop

	// Static mode: the LCT is preloaded from training runs and trials are
	// disabled (Sec. III-E2: offline tuning needs no hardware support).
	Static bool

	onSwitch  func(version int)
	onNewLoop func(loopPC int)

	Switches uint64
	UseInsts []uint64 // committed instructions attributed to each version
	lastUse  measure
}

type measure struct {
	insts  uint64
	cycles uint64
}

type trialState struct {
	ver        int
	accI, accC uint64
	bestVer    int
	bestSpeed  float64
}

type lctEntry struct {
	loopPC  int
	version int
	lru     uint64
	valid   bool
}

type lct struct {
	entries [16]lctEntry
	clock   uint64
}

func (t *lct) lookup(loopPC int) (int, bool) {
	t.clock++
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.loopPC == loopPC {
			e.lru = t.clock
			return e.version, true
		}
	}
	return 0, false
}

// table copies the valid entries out as a loop->version map.
func (t *lct) table() map[int]int {
	out := make(map[int]int)
	for _, e := range t.entries {
		if e.valid {
			out[e.loopPC] = e.version
		}
	}
	return out
}

func (t *lct) insert(loopPC, version int) {
	t.clock++
	vi := 0
	for i := range t.entries {
		if !t.entries[i].valid {
			vi = i
			break
		}
		if t.entries[i].lru < t.entries[vi].lru {
			vi = i
		}
	}
	t.entries[vi] = lctEntry{loopPC: loopPC, version: version, lru: t.clock, valid: true}
}

// NewRecycle builds a controller over numVersions skeletons. onSwitch is
// invoked whenever the active version changes; onNewLoop, when non-nil,
// whenever a new loop is entered.
func NewRecycle(numVersions int, onSwitch func(int), onNewLoop func(int)) *Recycle {
	return &Recycle{
		NumVersions: numVersions,
		// Each version must run well past the BOQ's look-ahead depth
		// (512 basic blocks) for the measurement to reflect it, not its
		// predecessor's queued-up benefit.
		TrialInsts: DefaultTrialInsts,
		curLoop:    -1,
		trials:     make(map[int]*trialState),
		UseInsts:   make([]uint64, numVersions),
		onSwitch:   onSwitch,
		onNewLoop:  onNewLoop,
	}
}

// Preload installs a training-time decision (static tuning).
func (r *Recycle) Preload(loopPC, version int) {
	r.lct.insert(loopPC, version)
}

// Current reports the active skeleton version.
func (r *Recycle) Current() int { return r.cur }

func (r *Recycle) switchTo(v int, m measure) {
	r.account(m)
	if v == r.cur {
		return
	}
	r.cur = v
	r.Switches++
	if r.onSwitch != nil {
		r.onSwitch(v)
	}
}

// account attributes the instructions committed since the last checkpoint
// to the active version (Fig. 15 data).
func (r *Recycle) account(m measure) {
	if m.insts >= r.lastUse.insts {
		r.UseInsts[r.cur] += m.insts - r.lastUse.insts
	}
	r.lastUse = m
}

// OnLoopBranch is called at MT commit of any PC in LoopSet, with the
// MT's running committed-instruction and cycle counters.
func (r *Recycle) OnLoopBranch(pc int, committed, cycles uint64) {
	m := measure{committed, cycles}
	if pc != r.curLoop {
		r.enterLoop(pc, m)
		return
	}
	if r.active == nil {
		return // steady state for this loop
	}
	st := r.active
	st.accI += m.insts - r.lastM.insts
	st.accC += m.cycles - r.lastM.cycles
	r.lastM = m
	if st.accI < r.TrialInsts {
		return
	}
	// Version st.ver measured: score it.
	dc := st.accC
	if dc == 0 {
		dc = 1
	}
	speed := float64(st.accI) / float64(dc)
	if speed > st.bestSpeed {
		st.bestSpeed = speed
		st.bestVer = st.ver
	}
	st.accI, st.accC = 0, 0
	st.ver++
	if st.ver >= r.NumVersions {
		// Sweep done: commit the winner.
		r.lct.insert(pc, st.bestVer)
		delete(r.trials, pc)
		r.active = nil
		r.switchTo(st.bestVer, m)
		return
	}
	r.switchTo(st.ver, m)
}

// enterLoop handles a transition to a (possibly new) loop.
func (r *Recycle) enterLoop(pc int, m measure) {
	r.curLoop = pc
	r.lastM = m
	if r.onNewLoop != nil {
		r.onNewLoop(pc)
	}
	if v, ok := r.lct.lookup(pc); ok {
		r.active = nil
		r.switchTo(v, m)
		return
	}
	if r.Static {
		// Unknown loop under static tuning: stay on the default version.
		r.active = nil
		r.switchTo(0, m)
		return
	}
	st := r.trials[pc]
	if st == nil {
		st = &trialState{bestSpeed: -1}
		if len(r.trials) > 64 {
			r.trials = make(map[int]*trialState) // bound memory
		}
		r.trials[pc] = st
	}
	r.active = st
	r.switchTo(st.ver, m)
}

// Finish flushes use accounting at end of run.
func (r *Recycle) Finish(committed, cycles uint64) {
	r.account(measure{committed, cycles})
}
