package pipeline

import (
	"slices"
	"testing"

	"r3dla/internal/branch"
	"r3dla/internal/cache"
	"r3dla/internal/emu"
	"r3dla/internal/isa"
)

// fixedMem is a flat backing store standing in for L2+ in unit tests.
type fixedMem struct{ lat uint64 }

func (f *fixedMem) Access(addr uint64, write, prefetch bool, now uint64) cache.Result {
	return cache.Result{Done: now + f.lat, Level: 4}
}

func testCaches(memLat uint64) (*cache.Cache, *cache.Cache) {
	next := &fixedMem{lat: memLat}
	l1i := cache.New(cache.Config{Name: "L1I", SizeBytes: 32 << 10, Ways: 4, BlockBits: 6, Latency: 3, MSHRs: 8}, next)
	l1d := cache.New(cache.Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 4, BlockBits: 6, Latency: 3, MSHRs: 32}, next)
	return l1i, l1d
}

func newTestCore(p *isa.Program, memLat uint64, mut func(*Config)) *Core {
	cfg := DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	mem := emu.NewMemory()
	m := emu.NewMachine(p, mem)
	feed := &MachineFeeder{M: m}
	dir := &TageSource{P: branch.NewPredictor(branch.DefaultConfig())}
	l1i, l1d := testCaches(memLat)
	return New(cfg, feed, dir, l1i, l1d)
}

// independentALUProgram: long runs of independent ALU ops in a loop.
func independentALUProgram(iters int64) *isa.Program {
	b := isa.NewBuilder("alu")
	b.Li(1, iters)
	b.Label("loop")
	for i := uint8(2); i < 14; i++ {
		b.I(isa.ADDI, i, i, 1)
	}
	b.I(isa.ADDI, 1, 1, -1)
	b.Br(isa.BNE, 1, isa.RegZero, "loop")
	b.Halt()
	return b.Program()
}

// serialChainProgram: every instruction depends on the previous one.
func serialChainProgram(iters int64) *isa.Program {
	b := isa.NewBuilder("chain")
	b.Li(1, iters)
	b.Label("loop")
	for i := 0; i < 12; i++ {
		b.I(isa.ADDI, 2, 2, 1)
	}
	b.I(isa.ADDI, 1, 1, -1)
	b.Br(isa.BNE, 1, isa.RegZero, "loop")
	b.Halt()
	return b.Program()
}

func TestIndependentALUReachesWideIPC(t *testing.T) {
	c := newTestCore(independentALUProgram(2000), 100, nil)
	m := c.Run(0)
	if m.Deadlocked {
		t.Fatal("deadlock")
	}
	if ipc := m.IPC(); ipc < 2.5 {
		t.Fatalf("independent ALU IPC = %.2f, want >= 2.5 (4-wide)", ipc)
	}
}

func TestSerialChainIPCNearOne(t *testing.T) {
	c := newTestCore(serialChainProgram(2000), 100, nil)
	m := c.Run(0)
	ipc := m.IPC()
	if ipc > 1.35 || ipc < 0.55 {
		t.Fatalf("serial chain IPC = %.2f, want ~1", ipc)
	}
}

func TestDependencyOrderingRespected(t *testing.T) {
	// IPC of serial chain must be well below independent stream.
	ci := newTestCore(independentALUProgram(1000), 100, nil)
	cs := newTestCore(serialChainProgram(1000), 100, nil)
	mi, ms := ci.Run(0), cs.Run(0)
	if mi.IPC() <= ms.IPC()*1.5 {
		t.Fatalf("dataflow not limiting: independent %.2f vs serial %.2f", mi.IPC(), ms.IPC())
	}
}

// pointerChaseProgram walks a linked ring with a cache-busting stride.
func pointerChaseProgram(nodes, iters int64) *isa.Program {
	b := isa.NewBuilder("chase")
	// Build the ring in memory first: node i at addr base + i*4096,
	// next pointer stored at the node.
	base := int64(1 << 20)
	b.Li(1, nodes) // counter
	b.Li(2, base)  // current
	b.Li(5, 4096)  // stride
	b.Label("init")
	b.R(isa.ADD, 3, 2, 5) // next = cur + stride
	b.St(3, 2, 0)
	b.Mov(2, 3)
	b.I(isa.ADDI, 1, 1, -1)
	b.Br(isa.BNE, 1, isa.RegZero, "init")
	// Close the ring.
	b.Li(4, base)
	b.St(4, 2, 0)
	// Chase.
	b.Li(1, iters)
	b.Li(2, base)
	b.Label("chase")
	b.Ld(2, 2, 0)
	b.I(isa.ADDI, 1, 1, -1)
	b.Br(isa.BNE, 1, isa.RegZero, "chase")
	b.Halt()
	return b.Program()
}

func TestPointerChaseIsMemoryBound(t *testing.T) {
	c := newTestCore(pointerChaseProgram(512, 3000), 200, nil)
	m := c.Run(0)
	if ipc := m.IPC(); ipc > 0.5 {
		t.Fatalf("pointer chase IPC = %.2f, want < 0.5 (memory bound)", ipc)
	}
	if m.LoadLevelHits[4] == 0 {
		t.Fatal("no loads reached memory")
	}
}

func TestMemoryLatencySlowsExecution(t *testing.T) {
	fast := newTestCore(pointerChaseProgram(512, 2000), 20, nil)
	slow := newTestCore(pointerChaseProgram(512, 2000), 400, nil)
	mf, ms := fast.Run(0), slow.Run(0)
	if mf.IPC() <= ms.IPC() {
		t.Fatalf("latency has no effect: fast %.3f vs slow %.3f", mf.IPC(), ms.IPC())
	}
}

// randomBranchProgram has a data-dependent unpredictable branch (via a
// xorshift PRNG computed in registers).
func randomBranchProgram(iters int64) *isa.Program {
	b := isa.NewBuilder("randbr")
	b.Li(1, iters)
	b.Li(2, 88172645463325252) // xorshift state
	b.Label("loop")
	// xorshift64
	b.I(isa.SHLI, 3, 2, 13)
	b.R(isa.XOR, 2, 2, 3)
	b.I(isa.SHRI, 3, 2, 7)
	b.R(isa.XOR, 2, 2, 3)
	b.I(isa.SHLI, 3, 2, 17)
	b.R(isa.XOR, 2, 2, 3)
	b.I(isa.ANDI, 4, 2, 1)
	b.Br(isa.BEQ, 4, isa.RegZero, "skip")
	b.I(isa.ADDI, 5, 5, 1)
	b.Label("skip")
	b.I(isa.ADDI, 1, 1, -1)
	b.Br(isa.BNE, 1, isa.RegZero, "loop")
	b.Halt()
	return b.Program()
}

func TestUnpredictableBranchesCostCycles(t *testing.T) {
	c := newTestCore(randomBranchProgram(3000), 50, nil)
	m := c.Run(0)
	if m.DirMispredicts < 1000 {
		t.Fatalf("expected ~1500 mispredicts, got %d", m.DirMispredicts)
	}
	if ipc := m.IPC(); ipc > 2.0 {
		t.Fatalf("random-branch IPC = %.2f, too high for mispredict-bound code", ipc)
	}
}

func TestPerfectDirectionSourceSpeedsUp(t *testing.T) {
	p := randomBranchProgram(3000)
	base := newTestCore(p, 50, nil)
	mb := base.Run(0)

	oracle := newTestCore(p, 50, nil)
	oracle.Dir = oracleDir{}
	mo := oracle.Run(0)
	if mo.DirMispredicts != 0 {
		t.Fatalf("oracle mispredicted %d times", mo.DirMispredicts)
	}
	if mo.IPC() <= mb.IPC()*1.1 {
		t.Fatalf("oracle direction source did not help: %.2f vs %.2f", mo.IPC(), mb.IPC())
	}
}

type oracleDir struct{}

func (oracleDir) PredictAndTrain(pc int, actual bool, now uint64) (bool, bool) {
	return actual, true
}

// stallDir returns ok=false for the first n queries (BOQ-empty modeling).
type stallDir struct {
	n     int
	inner DirectionSource
}

func (s *stallDir) PredictAndTrain(pc int, actual bool, now uint64) (bool, bool) {
	if s.n > 0 {
		s.n--
		return false, false
	}
	return s.inner.PredictAndTrain(pc, actual, now)
}

func TestEmptyDirectionSourceStallsFetchNotForever(t *testing.T) {
	p := independentALUProgram(500)
	c := newTestCore(p, 50, nil)
	c.Dir = &stallDir{n: 300, inner: oracleDir{}}
	m := c.Run(0)
	if m.Deadlocked {
		t.Fatal("deadlocked on temporarily-empty direction source")
	}
	if m.FetchStallBOQ == 0 {
		t.Fatal("BOQ stalls not counted")
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	// store to A, immediately load A in a tight loop: loads must not pay
	// memory latency.
	b := isa.NewBuilder("fwd")
	b.Li(1, 2000)
	b.Li(2, 1<<20)
	b.Label("loop")
	b.St(1, 2, 0)
	b.Ld(3, 2, 0)
	b.I(isa.ADDI, 1, 1, -1)
	b.Br(isa.BNE, 1, isa.RegZero, "loop")
	b.Halt()
	c := newTestCore(b.Program(), 500, nil)
	m := c.Run(0)
	if ipc := m.IPC(); ipc < 0.8 {
		t.Fatalf("forwarding broken: IPC %.2f with 500-cycle memory", ipc)
	}
}

func TestROBLimitsMemoryParallelism(t *testing.T) {
	// Independent loads with a tiny ROB vs a big ROB.
	prog := func() *isa.Program {
		b := isa.NewBuilder("mlp")
		b.Li(1, 400)
		b.Li(2, 1<<20)
		b.Label("loop")
		for i := 0; i < 8; i++ {
			b.Ld(uint8(3+i), 2, int64(i*4096))
		}
		b.I(isa.ADDI, 2, 2, 64*1024)
		b.I(isa.ADDI, 1, 1, -1)
		b.Br(isa.BNE, 1, isa.RegZero, "loop")
		b.Halt()
		return b.Program()
	}
	small := newTestCore(prog(), 300, func(c *Config) { c.ROB = 16; c.LSQ = 8 })
	big := newTestCore(prog(), 300, nil)
	msmall, mbig := small.Run(0), big.Run(0)
	if mbig.IPC() <= msmall.IPC()*1.2 {
		t.Fatalf("ROB size has no effect on MLP: %0.3f vs %0.3f", mbig.IPC(), msmall.IPC())
	}
}

func TestCommitIsInOrderAndComplete(t *testing.T) {
	p := independentALUProgram(100)
	var lastSeq uint64
	first := true
	c := newTestCore(p, 50, nil)
	c.Hooks.OnCommit = func(d *emu.DynInst, now uint64) {
		if !first && d.Seq != lastSeq+1 {
			t.Fatalf("commit out of order: %d after %d", d.Seq, lastSeq)
		}
		lastSeq = d.Seq
		first = false
	}
	m := c.Run(0)
	if m.Committed == 0 || m.Committed != m.Dispatched {
		t.Fatalf("committed %d != dispatched %d", m.Committed, m.Dispatched)
	}
}

func TestValueSourceAcceleratesLongLatencyChain(t *testing.T) {
	// A chain through loads that miss: value prediction should help.
	p := pointerChaseProgram(512, 1500)
	base := newTestCore(p, 300, nil)
	mb := base.Run(0)

	vp := newTestCore(p, 300, nil)
	vp.Vals = perfectValues{}
	mv := vp.Run(0)
	if mv.ValuePreds == 0 {
		t.Fatal("value source never consulted")
	}
	if mv.IPC() <= mb.IPC()*1.3 {
		t.Fatalf("perfect value prediction did not accelerate chase: %.3f vs %.3f", mv.IPC(), mb.IPC())
	}
}

type perfectValues struct{}

func (perfectValues) Lookup(d *emu.DynInst) (uint64, bool) { return d.Val, true }
func (perfectValues) OnOutcome(d *emu.DynInst, ok bool)    {}

type wrongValues struct{ preds, wrong int }

func (w *wrongValues) Lookup(d *emu.DynInst) (uint64, bool) {
	w.preds++
	return d.Val + 1, true
}
func (w *wrongValues) OnOutcome(d *emu.DynInst, ok bool) {
	if !ok {
		w.wrong++
	}
}

func TestWrongValuePredictionsArePenalized(t *testing.T) {
	p := independentALUProgram(500)
	base := newTestCore(p, 50, nil)
	mb := base.Run(0)

	bad := newTestCore(p, 50, nil)
	w := &wrongValues{}
	bad.Vals = w
	mw := bad.Run(0)
	if w.wrong == 0 {
		t.Fatal("outcome callback not invoked")
	}
	if mw.IPC() >= mb.IPC() {
		t.Fatalf("wrong value predictions should hurt: %.3f vs %.3f", mw.IPC(), mb.IPC())
	}
}

func TestFetchBufferOccupancyTracked(t *testing.T) {
	c := newTestCore(independentALUProgram(500), 50, func(cfg *Config) { cfg.TrackFetchQOcc = true })
	m := c.Run(0)
	if m.FetchQOcc == nil || m.FetchQOcc.Total == 0 {
		t.Fatal("fetch queue occupancy not tracked")
	}
}

func TestInfiniteBackendCountsSupply(t *testing.T) {
	c := newTestCore(independentALUProgram(500), 50, func(cfg *Config) {
		cfg.InfiniteBackend = true
		cfg.TrackSupply = true
	})
	m := c.Run(0)
	if m.Supply == nil || m.Supply.Total == 0 {
		t.Fatal("supply histogram empty")
	}
	if m.Committed == 0 {
		t.Fatal("infinite backend did not drain")
	}
}

func TestPerfectFrontendDemand(t *testing.T) {
	c := newTestCore(independentALUProgram(500), 50, func(cfg *Config) {
		cfg.PerfectFrontend = true
		cfg.TrackDemand = true
	})
	m := c.Run(0)
	if m.Demand == nil || m.Demand.Total == 0 {
		t.Fatal("demand histogram empty")
	}
	if m.DirMispredicts != 0 {
		t.Fatal("perfect frontend should not mispredict")
	}
}

func TestCallReturnPredictedByRAS(t *testing.T) {
	b := isa.NewBuilder("callret")
	b.Li(1, 1000)
	b.Label("loop")
	b.Call("fn")
	b.I(isa.ADDI, 1, 1, -1)
	b.Br(isa.BNE, 1, isa.RegZero, "loop")
	b.Halt()
	b.Label("fn")
	b.I(isa.ADDI, 2, 2, 1)
	b.Ret()
	c := newTestCore(b.Program(), 50, nil)
	m := c.Run(0)
	// After warmup, returns predicted by the RAS: very few target misses.
	if m.TargetMispredicts > 20 {
		t.Fatalf("RAS ineffective: %d target mispredicts over 1000 calls", m.TargetMispredicts)
	}
}

func TestBudgetStopsRun(t *testing.T) {
	c := newTestCore(independentALUProgram(1_000_000), 50, nil)
	m := c.Run(5000)
	if m.Committed < 5000 || m.Committed > 5000+uint64(c.Cfg.CommitWidth) {
		t.Fatalf("budget not honored: %d committed", m.Committed)
	}
}

// sliceFeeder feeds a fixed instruction list, pointing Peek at its own
// copies as the Feeder contract allows.
type sliceFeeder struct {
	insts []emu.DynInst
	next  int
}

func (f *sliceFeeder) Peek() (*emu.DynInst, bool) {
	if f.next == len(f.insts) {
		return nil, false
	}
	return &f.insts[f.next], true
}

func (f *sliceFeeder) Advance() { f.next++ }

// The FetchTag stamp goes on the core's copy of an instruction, never on
// the feeder's. The first instruction misses the cold I-cache, so fetch
// peeks it, stamps it 1 and stops, then peeks it again and stamps it 2:
// the TargetHint hook and the committed instruction must both carry the
// stamp of the fetch that succeeded.
func TestFetchStampsItsOwnCopy(t *testing.T) {
	ret := isa.Inst{Op: isa.RET}
	add := isa.Inst{Op: isa.ADD, Rd: 2, Rs1: 3, Rs2: 4}
	feed := &sliceFeeder{insts: []emu.DynInst{
		{Seq: 0, PC: 0, In: &ret, NextPC: 1, Taken: true},
		{Seq: 1, PC: 1, In: &add, NextPC: 2, HasVal: true},
	}}
	l1i, l1d := testCaches(50)
	c := New(DefaultConfig(), feed, &TageSource{P: branch.NewPredictor(branch.DefaultConfig())}, l1i, l1d)
	var stamps uint64
	c.Hooks.FetchTag = func() uint64 { stamps++; return stamps }
	var hinted []uint64
	c.Hooks.TargetHint = func(d *emu.DynInst) (int, bool) {
		hinted = append(hinted, d.Tag)
		return d.NextPC, true
	}
	committed := map[uint64]uint64{} // Seq -> Tag
	c.Hooks.OnCommit = func(d *emu.DynInst, now uint64) { committed[d.Seq] = d.Tag }
	if m := c.Run(0); m.Deadlocked || m.Committed != 2 {
		t.Fatalf("committed %d of 2 instructions (deadlocked: %v)", m.Committed, m.Deadlocked)
	}

	for _, d := range feed.insts {
		if d.Tag != 0 {
			t.Errorf("fetch wrote Tag %d into the feeder's instruction %d", d.Tag, d.Seq)
		}
	}
	if !slices.Equal(hinted, []uint64{2}) {
		t.Errorf("TargetHint saw tags %v, want [2]: the stamp of the RET's second fetch", hinted)
	}
	if committed[0] != 2 || committed[1] != stamps {
		t.Errorf("committed tags %v, want RET 2 and ADD %d (the last stamp)", committed, stamps)
	}
}
