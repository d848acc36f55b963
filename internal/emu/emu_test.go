package emu

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"r3dla/internal/isa"
)

// sumProgram computes sum of 1..n into r2 via a loop and stores it at
// address 0x1000.
func sumProgram(n int64) *isa.Program {
	b := isa.NewBuilder("sum")
	b.Li(1, n) // r1 = n
	b.Li(2, 0) // r2 = 0
	b.Label("loop")
	b.R(isa.ADD, 2, 2, 1) // r2 += r1
	b.I(isa.ADDI, 1, 1, -1)
	b.Br(isa.BNE, 1, isa.RegZero, "loop")
	b.Li(3, 0x1000)
	b.St(2, 3, 0)
	b.Halt()
	return b.Program()
}

func TestSumLoop(t *testing.T) {
	mem := NewMemory()
	m := NewMachine(sumProgram(10), mem)
	m.Run(10000, nil)
	if !m.Halted {
		t.Fatal("machine did not halt")
	}
	if got := mem.Read(0x1000); got != 55 {
		t.Fatalf("sum = %d, want 55", got)
	}
}

func TestCallRet(t *testing.T) {
	b := isa.NewBuilder("callret")
	b.Li(1, 5)
	b.Call("double")
	b.Li(3, 0x2000)
	b.St(2, 3, 0)
	b.Halt()
	b.Label("double")
	b.R(isa.ADD, 2, 1, 1)
	b.Ret()
	mem := NewMemory()
	m := NewMachine(b.Program(), mem)
	m.Run(100, nil)
	if got := mem.Read(0x2000); got != 10 {
		t.Fatalf("double(5) = %d, want 10", got)
	}
}

func TestIndirectJump(t *testing.T) {
	b := isa.NewBuilder("jr")
	b.LabelAddr(1, "dest")
	b.Jr(1)
	b.Li(2, 111) // skipped
	b.Halt()
	b.Label("dest")
	b.Li(2, 42)
	b.Halt()
	m := NewMachine(b.Program(), NewMemory())
	m.Run(100, nil)
	if m.Reg[2] != 42 {
		t.Fatalf("r2 = %d, want 42", m.Reg[2])
	}
}

func TestFloatOps(t *testing.T) {
	b := isa.NewBuilder("fp")
	b.Li(1, 3)
	b.R(isa.FCVT, isa.FReg(0), 1, 0) // f0 = 3.0
	b.Li(1, 4)
	b.R(isa.FCVT, isa.FReg(1), 1, 0)                     // f1 = 4.0
	b.R(isa.FMUL, isa.FReg(2), isa.FReg(0), isa.FReg(1)) // f2 = 12.0
	b.R(isa.FADD, isa.FReg(2), isa.FReg(2), isa.FReg(1)) // f2 = 16.0
	b.R(isa.FDIV, isa.FReg(3), isa.FReg(2), isa.FReg(0)) // f3 = 16/3
	b.R(isa.FCMP, 5, isa.FReg(0), isa.FReg(1))           // r5 = (3<4) = 1
	b.Halt()
	m := NewMachine(b.Program(), NewMemory())
	m.Run(100, nil)
	if got := f64(m.Reg[isa.FReg(2)]); got != 16.0 {
		t.Fatalf("f2 = %v, want 16", got)
	}
	if m.Reg[5] != 1 {
		t.Fatalf("fcmp = %d, want 1", m.Reg[5])
	}
}

func TestDivByZeroIsZero(t *testing.T) {
	b := isa.NewBuilder("div0")
	b.Li(1, 7)
	b.R(isa.DIV, 2, 1, isa.RegZero)
	b.Halt()
	m := NewMachine(b.Program(), NewMemory())
	m.Run(10, nil)
	if m.Reg[2] != 0 {
		t.Fatalf("div by zero = %d, want 0", m.Reg[2])
	}
}

func TestRegZeroIsHardwired(t *testing.T) {
	b := isa.NewBuilder("r0")
	b.I(isa.ADDI, isa.RegZero, isa.RegZero, 99)
	b.R(isa.ADD, 1, isa.RegZero, isa.RegZero)
	b.Halt()
	m := NewMachine(b.Program(), NewMemory())
	m.Run(10, nil)
	if m.Reg[1] != 0 {
		t.Fatalf("r0 writable: r1 = %d", m.Reg[1])
	}
}

func TestDynInstRecords(t *testing.T) {
	p := sumProgram(2)
	m := NewMachine(p, NewMemory())
	var branches, loads, stores int
	var lastTaken bool
	m.Run(1000, func(d DynInst) {
		if d.In.Op.IsCondBranch() {
			branches++
			lastTaken = d.Taken
		}
		if d.In.Op.IsLoad() {
			loads++
		}
		if d.In.Op.IsStore() {
			stores++
		}
	})
	if branches != 2 {
		t.Fatalf("branches = %d, want 2", branches)
	}
	if lastTaken {
		t.Fatal("final loop branch should be not-taken")
	}
	if stores != 1 || loads != 0 {
		t.Fatalf("loads/stores = %d/%d, want 0/1", loads, stores)
	}
}

func TestStepForcedOverridesBranch(t *testing.T) {
	b := isa.NewBuilder("forced")
	b.Label("top")
	b.Li(1, 1)
	b.Br(isa.BEQ, 1, isa.RegZero, "top") // actually not taken
	b.Halt()
	m := NewMachine(b.Program(), NewMemory())
	m.Step() // li (expands to one addi)
	var d DynInst
	m.StepForced(true, &d)
	if !d.Taken || d.NextPC != 0 {
		t.Fatalf("forced branch not honored: %+v", d)
	}
	if m.PC != 0 {
		t.Fatalf("PC = %d, want 0", m.PC)
	}
}

func TestHaltedMachineStaysHalted(t *testing.T) {
	b := isa.NewBuilder("h")
	b.Halt()
	m := NewMachine(b.Program(), NewMemory())
	m.Step()
	if !m.Halted {
		t.Fatal("not halted")
	}
	d := m.Step()
	if d.In.Op != isa.HALT || m.PC != 0 {
		t.Fatalf("halted step misbehaved: %+v pc=%d", d, m.PC)
	}
}

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory()
	if m.Read(0xdeadbeef0) != 0 {
		t.Fatal("uninitialized memory not zero")
	}
	m.Write(0x10, 42)
	if m.Read(0x10) != 42 {
		t.Fatal("write lost")
	}
	// Word granularity: addr 0x11 hits the same word.
	if m.Read(0x11) != 42 {
		t.Fatal("sub-word aliasing broken")
	}
}

// Property: Memory behaves as a map from word addresses to last-written
// values. The addresses fall on four pages and the values on all four
// widths, so pages fill, widen and are overwritten at every width; raw
// random uint64s are almost all 64 bits wide and never leave a page
// narrow.
func TestMemoryProperty(t *testing.T) {
	f := func(addrs []uint32, vals []uint64, widths []uint8) bool {
		m := NewMemory()
		ref := map[uint64]uint64{}
		n := min(len(addrs), len(vals), len(widths))
		for i := 0; i < n; i++ {
			a := uint64(addrs[i]) % (4 << (pageShift + 3)) &^ 7
			v := vals[i] >> (64 - 8<<(widths[i]&3))
			m.Write(a, v)
			ref[a] = v
		}
		for a, v := range ref {
			if m.Read(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// pageBits returns the width, in bits a word, of the page holding addr.
func pageBits(m *Memory, addr uint64) int {
	return 64 >> m.pages[addr>>(pageShift+3)].sh
}

// TestMemoryWidths walks one page through every widening: each value
// below is the largest of its width or the smallest of the next, written
// to its own scattered word. Every earlier word must survive each
// repacking, and a smaller value later overwrites a wide word exactly.
func TestMemoryWidths(t *testing.T) {
	const base = 5 << (pageShift + 3)
	m := NewMemory()
	steps := []struct {
		word uint64
		v    uint64
		bits int
	}{
		{0, 0xff, 8},
		{4095, 0x100, 16},
		{1, 0xffff, 16},
		{2048, 0x1_0000, 32},
		{777, 0xffff_ffff, 32},
		{3000, 0x1_0000_0000, 64},
		{1234, ^uint64(0), 64},
	}
	for i, s := range steps {
		m.Write(base+s.word*8, s.v)
		if got := pageBits(m, base); got != s.bits {
			t.Fatalf("after writing %#x the page is %d bits wide, want %d", s.v, got, s.bits)
		}
		for _, e := range steps[:i+1] {
			if got := m.Read(base + e.word*8); got != e.v {
				t.Fatalf("after writing %#x word %d reads %#x, want %#x", s.v, e.word, got, e.v)
			}
		}
		for _, w := range []uint64{2, 3, 4094} {
			if got := m.Read(base + w*8); got != 0 {
				t.Fatalf("after writing %#x unwritten word %d reads %#x", s.v, w, got)
			}
		}
	}
	m.Write(base+1234*8, 7)
	m.Write(base+3000*8, 0)
	for _, e := range steps {
		want := e.v
		switch e.word {
		case 1234:
			want = 7
		case 3000:
			want = 0
		}
		if got := m.Read(base + e.word*8); got != want {
			t.Errorf("after narrow overwrites word %d reads %#x, want %#x", e.word, got, want)
		}
	}
	if got := pageBits(m, base); got != 64 {
		t.Errorf("the page narrowed to %d bits", got)
	}
	if m.Footprint() != 1 {
		t.Errorf("footprint = %d pages, want 1", m.Footprint())
	}
}

// TestForkWidensPrivately: a fork copies a page it shares before its
// first write to it, one that fits the page's width or not, so the image
// it forked and a sibling fork keep the old words and the old width.
func TestForkWidensPrivately(t *testing.T) {
	img := NewMemory()
	pages := []struct {
		addr uint64 // the page's first word
		v    uint64 // its words' value
		bits int
	}{
		{1 << (pageShift + 3), 0xab, 8},
		{2 << (pageShift + 3), 0xabcd, 16},
		{3 << (pageShift + 3), 0xabcd_ef01, 32},
	}
	for _, p := range pages {
		for w := uint64(0); w < pageWords; w += 3 {
			img.Write(p.addr+w*8, p.v)
		}
	}
	fork, sibling := img.Fork(), img.Fork()
	const wide uint64 = 1<<63 | 5
	for _, p := range pages {
		fork.Write(p.addr+10*8, 1)
		fork.Write(p.addr+9*8, wide)
	}
	for _, p := range pages {
		if got := fork.Read(p.addr + 9*8); got != wide {
			t.Errorf("%d-bit page: the fork reads %#x, want %#x", p.bits, got, wide)
		}
		if got := pageBits(fork, p.addr); got != 64 {
			t.Errorf("%d-bit page: the fork's copy is %d bits wide, want 64", p.bits, got)
		}
		for name, m := range map[string]*Memory{"the image": img, "a sibling fork": sibling, "the fork": fork} {
			if got := pageBits(m, p.addr); name != "the fork" && got != p.bits {
				t.Errorf("%d-bit page: %s's page is %d bits wide", p.bits, name, got)
			}
			for w := uint64(0); w < 16; w++ {
				want := uint64(0)
				switch {
				case name == "the fork" && w == 9:
					want = wide
				case name == "the fork" && w == 10:
					want = 1
				case w%3 == 0:
					want = p.v
				}
				if got := m.Read(p.addr + w*8); got != want {
					t.Errorf("%d-bit page: %s reads %#x at word %d, want %#x", p.bits, name, got, w, want)
				}
			}
		}
	}
}

// TestConcurrentForksOfOneImage: goroutines fork one frozen image at once
// and each widens the same pages. Under -race this guards the rule the
// write cache depends on: Read and Fork never write to the Memory they
// are called on.
func TestConcurrentForksOfOneImage(t *testing.T) {
	img := NewMemory()
	for w := uint64(0); w < 3*pageWords; w += 5 {
		img.Write(w*8, w&0xff)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := range uint64(4) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := img.Fork()
			for w := uint64(0); w < 3*pageWords; w += pageWords / 4 {
				f.Write(w*8, 1<<40|g<<8|w&0xff)
			}
			for w := uint64(0); w < 3*pageWords; w++ {
				old := uint64(0)
				if w%5 == 0 {
					old = w & 0xff
				}
				want := old
				if w%(pageWords/4) == 0 {
					want = 1<<40 | g<<8 | w&0xff
				}
				if got := f.Read(w * 8); got != want {
					errs <- fmt.Sprintf("fork %d reads %#x at word %d, want %#x", g, got, w, want)
					return
				}
				if got := img.Read(w * 8); got != old {
					errs <- fmt.Sprintf("the image reads %#x at word %d beside fork %d, want %#x", got, w, g, old)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestOverlayContainment(t *testing.T) {
	base := NewMemory()
	base.Write(0x100, 7)
	o := NewOverlay(base)
	if o.Read(0x100) != 7 {
		t.Fatal("overlay does not read through")
	}
	o.Write(0x100, 9)
	o.Write(0x200, 5)
	if o.Read(0x100) != 9 || o.Read(0x200) != 5 {
		t.Fatal("overlay writes not visible locally")
	}
	if base.Read(0x100) != 7 || base.Read(0x200) != 0 {
		t.Fatal("overlay leaked into base")
	}
	if o.DirtyWords() != 2 {
		t.Fatalf("dirty words = %d, want 2", o.DirtyWords())
	}
	o.Reset()
	if o.Read(0x100) != 7 || o.DirtyWords() != 0 {
		t.Fatal("reset did not discard overlay")
	}
}

// Property: two machines running the same program produce identical
// dynamic streams (determinism — required for DLA's LT/MT agreement).
func TestMachineDeterminism(t *testing.T) {
	p := sumProgram(50)
	m1 := NewMachine(p, NewMemory())
	m2 := NewMachine(p, NewMemory())
	for i := 0; i < 500; i++ {
		d1, d2 := m1.Step(), m2.Step()
		if d1.PC != d2.PC || d1.Val != d2.Val || d1.Taken != d2.Taken || d1.EA != d2.EA {
			t.Fatalf("divergence at step %d: %+v vs %+v", i, d1, d2)
		}
		if m1.Halted {
			break
		}
	}
}

// randomOpsProgram builds a loop of random instructions that between them
// write every field of a DynInst: integer and FP values, loads and
// stores with their effective addresses, conditional branches taken and
// not, direct and indirect calls and a return, an indirect jump and
// NOPs. Registers 3-12 and F0-F7 hold the random data; r1 counts the
// loop, r2 is the base address, r14 and r15 hold code addresses.
func randomOpsProgram(seed int64) *isa.Program {
	rng := rand.New(rand.NewSource(seed))
	pick := func(ops ...isa.Op) isa.Op { return ops[rng.Intn(len(ops))] }
	reg := func() uint8 { return uint8(rng.Intn(10) + 3) }
	freg := func() uint8 { return isa.FReg(uint8(rng.Intn(8))) }
	b := isa.NewBuilder("randops")
	b.Li(1, 30)
	b.Li(2, 1<<16)
	b.LabelAddr(15, "sub")
	b.Label("loop")
	for i := range 60 {
		switch rng.Intn(10) {
		case 0:
			b.R(pick(isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR, isa.SLT), reg(), reg(), reg())
		case 1:
			b.I(pick(isa.ADDI, isa.ANDI, isa.ORI, isa.XORI, isa.SHLI, isa.SHRI, isa.SLTI, isa.LUI), reg(), reg(), rng.Int63n(64)-8)
		case 2:
			b.R(pick(isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV, isa.FCVT, isa.FCMP), freg(), freg(), freg())
		case 3:
			b.Ld(reg(), 2, rng.Int63n(32)*8)
		case 4:
			b.St(reg(), 2, rng.Int63n(32)*8)
		case 5:
			b.Fld(freg(), 2, rng.Int63n(32)*8)
		case 6:
			b.Fst(freg(), 2, rng.Int63n(32)*8)
		case 7:
			skip := fmt.Sprintf("skip%d", i)
			b.Br(pick(isa.BEQ, isa.BNE, isa.BLT, isa.BGE), reg(), reg(), skip)
			b.I(isa.ADDI, reg(), reg(), 1)
			b.Label(skip)
		case 8:
			if rng.Intn(2) == 0 {
				b.Call("sub")
			} else {
				b.CallR(15)
			}
		default:
			next := fmt.Sprintf("next%d", i)
			b.LabelAddr(14, next)
			b.Jr(14)
			b.Nop()
			b.Label(next)
		}
	}
	b.I(isa.ADDI, 1, 1, -1)
	b.Br(isa.BNE, 1, isa.RegZero, "loop")
	b.Halt()
	b.Label("sub")
	b.R(isa.ADD, 3, 3, 4)
	b.Ret()
	return b.Program()
}

// TestStepIntoOverwritesTheRecord steps random programs into one reused
// record, forcing a random direction on one step in four, beside a twin
// machine that builds every record fresh. Each record must equal the
// twin's: a field StepInto or StepForced left unwritten would still hold
// the previous instruction's value. Steps past the halt take the halted
// path.
func TestStepIntoOverwritesTheRecord(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		p := randomOpsProgram(seed)
		m, twin := NewMachine(p, NewMemory()), NewMachine(p, NewMemory())
		rng := rand.New(rand.NewSource(seed))
		var rec DynInst
		for n, after := 0, 0; n < 20_000 && after < 3; n++ {
			var want DynInst
			if rng.Intn(4) == 0 {
				taken := rng.Intn(2) == 0
				m.StepForced(taken, &rec)
				twin.StepForced(taken, &want)
			} else {
				m.StepInto(&rec)
				want = twin.Step()
			}
			if rec != want {
				t.Fatalf("seed %d, step %d: record %+v, fresh step %+v", seed, n, rec, want)
			}
			if twin.Halted {
				after++
			}
		}
		if !twin.Halted {
			t.Fatalf("seed %d: no halt in 20,000 steps", seed)
		}
	}
}

func TestCopyArchState(t *testing.T) {
	p := sumProgram(10)
	mt := NewMachine(p, NewMemory())
	lt := NewMachine(p, NewOverlay(NewMemory()))
	for i := 0; i < 5; i++ {
		mt.Step()
	}
	lt.CopyArchState(mt)
	if lt.PC != mt.PC || lt.Reg != mt.Reg {
		t.Fatal("arch state copy incomplete")
	}
}

// TestDynInstIsOneLine pins DynInst at one 64-byte cache line. The timing
// model copies every record into its fetch queue and then its ROB, so a
// field that takes it past the line costs every fetched instruction, and
// adding one should be a decision.
func TestDynInstIsOneLine(t *testing.T) {
	if got := unsafe.Sizeof(DynInst{}); got != 64 {
		t.Errorf("DynInst is %d bytes, want 64", got)
	}
}
