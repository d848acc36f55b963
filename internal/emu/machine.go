package emu

import (
	"fmt"
	"math"

	"r3dla/internal/isa"
)

// DynInst is the dynamic record of one executed instruction. It carries
// everything a timing model needs: identity, control outcome, memory
// effective address, and the produced value (for value reuse). The two
// bools share the last word, so a record fills one 64-byte cache line;
// the timing model copies each one into its fetch queue and its ROB.
type DynInst struct {
	Seq    uint64    // dynamic sequence number within this Machine
	PC     int       // static instruction index
	In     *isa.Inst // the static instruction
	NextPC int       // architectural next PC
	EA     uint64    // effective address for loads/stores
	Val    uint64    // value written to Dest (meaningful when HasVal)
	Tag    uint64    // opaque tag stamped by the consumer (e.g. BOQ epoch)
	Taken  bool      // conditional branch outcome (or true for taken jumps)
	HasVal bool      // instruction produced a register value
}

// Machine is an architectural-state interpreter for one thread.
type Machine struct {
	Prog   *isa.Program
	Reg    [isa.NumRegs]uint64
	Mem    Mem
	PC     int
	Halted bool
	Seq    uint64
}

// NewMachine returns a Machine at the program entry with zeroed registers.
func NewMachine(p *isa.Program, mem Mem) *Machine {
	return &Machine{Prog: p, Mem: mem, PC: p.Entry}
}

// CopyArchState copies registers, PC and halt status from src (the reboot
// path: LT re-initialized from MT).
func (m *Machine) CopyArchState(src *Machine) {
	m.Reg = src.Reg
	m.PC = src.PC
	m.Halted = src.Halted
}

func f64(bits uint64) float64 { return math.Float64frombits(bits) }
func bits(f float64) uint64   { return math.Float64bits(f) }
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Step executes the instruction at PC and returns its dynamic record.
// Stepping a halted machine returns a HALT record without advancing.
func (m *Machine) Step() (d DynInst) { m.StepInto(&d); return }

// StepInto is Step writing the record to *d, every field of it, instead
// of returning it: a feeder steps into its own record, so a fetched
// instruction is built once, in place.
func (m *Machine) StepInto(d *DynInst) {
	if m.Halted || m.PC < 0 || m.PC >= len(m.Prog.Insts) {
		m.Halted = true
		*d = DynInst{Seq: m.Seq, PC: m.PC, In: &haltInst, NextPC: m.PC}
		return
	}
	m.exec(&m.Prog.Insts[m.PC], d)
	m.Seq++
	m.PC = d.NextPC
}

var haltInst = isa.Inst{Op: isa.HALT}

// StepForced executes the conditional branch at PC with a forced direction
// instead of evaluating its condition, writing its record to *d. It is
// used by look-ahead skeletons that converted biased branches to
// unconditional flow. For non-branch instructions it falls back to
// StepInto.
func (m *Machine) StepForced(taken bool, d *DynInst) {
	if m.Halted || m.PC < 0 || m.PC >= len(m.Prog.Insts) {
		m.StepInto(d)
		return
	}
	in := &m.Prog.Insts[m.PC]
	if !in.Op.IsCondBranch() {
		m.StepInto(d)
		return
	}
	next := m.PC + 1
	if taken {
		next = int(in.Targ)
	}
	*d = DynInst{Seq: m.Seq, PC: m.PC, In: in, NextPC: next, Taken: taken}
	m.Seq++
	m.PC = next
}

// exec executes in at the current PC, updating register/memory state, and
// writes its dynamic record to *d. It overwrites the whole record first,
// so no field of the instruction d held before survives. It does not
// advance PC or Seq.
func (m *Machine) exec(in *isa.Inst, d *DynInst) {
	*d = DynInst{Seq: m.Seq, PC: m.PC, In: in, NextPC: m.PC + 1}
	r := &m.Reg
	rv := func(i uint8) uint64 {
		if i == isa.RegZero {
			return 0
		}
		return r[i]
	}
	setd := func(reg uint8, v uint64) {
		d.Val, d.HasVal = v, true
		if reg != isa.RegZero {
			r[reg] = v
		}
	}

	switch in.Op {
	case isa.NOP:
	case isa.ADD:
		setd(in.Rd, rv(in.Rs1)+rv(in.Rs2))
	case isa.SUB:
		setd(in.Rd, rv(in.Rs1)-rv(in.Rs2))
	case isa.MUL:
		setd(in.Rd, rv(in.Rs1)*rv(in.Rs2))
	case isa.DIV:
		den := rv(in.Rs2)
		if den == 0 {
			setd(in.Rd, 0)
		} else {
			setd(in.Rd, rv(in.Rs1)/den)
		}
	case isa.AND:
		setd(in.Rd, rv(in.Rs1)&rv(in.Rs2))
	case isa.OR:
		setd(in.Rd, rv(in.Rs1)|rv(in.Rs2))
	case isa.XOR:
		setd(in.Rd, rv(in.Rs1)^rv(in.Rs2))
	case isa.SHL:
		setd(in.Rd, rv(in.Rs1)<<(rv(in.Rs2)&63))
	case isa.SHR:
		setd(in.Rd, rv(in.Rs1)>>(rv(in.Rs2)&63))
	case isa.SLT:
		setd(in.Rd, b2u(int64(rv(in.Rs1)) < int64(rv(in.Rs2))))
	case isa.ADDI:
		setd(in.Rd, rv(in.Rs1)+uint64(in.Imm))
	case isa.ANDI:
		setd(in.Rd, rv(in.Rs1)&uint64(in.Imm))
	case isa.ORI:
		setd(in.Rd, rv(in.Rs1)|uint64(in.Imm))
	case isa.XORI:
		setd(in.Rd, rv(in.Rs1)^uint64(in.Imm))
	case isa.SHLI:
		setd(in.Rd, rv(in.Rs1)<<(uint64(in.Imm)&63))
	case isa.SHRI:
		setd(in.Rd, rv(in.Rs1)>>(uint64(in.Imm)&63))
	case isa.SLTI:
		setd(in.Rd, b2u(int64(rv(in.Rs1)) < in.Imm))
	case isa.LUI:
		setd(in.Rd, uint64(in.Imm)<<32)

	case isa.FADD:
		setd(in.Rd, bits(f64(rv(in.Rs1))+f64(rv(in.Rs2))))
	case isa.FSUB:
		setd(in.Rd, bits(f64(rv(in.Rs1))-f64(rv(in.Rs2))))
	case isa.FMUL:
		setd(in.Rd, bits(f64(rv(in.Rs1))*f64(rv(in.Rs2))))
	case isa.FDIV:
		setd(in.Rd, bits(f64(rv(in.Rs1))/f64(rv(in.Rs2))))
	case isa.FCVT:
		setd(in.Rd, bits(float64(int64(rv(in.Rs1)))))
	case isa.FCMP:
		setd(in.Rd, b2u(f64(rv(in.Rs1)) < f64(rv(in.Rs2))))

	case isa.LD, isa.FLD:
		d.EA = rv(in.Rs1) + uint64(in.Imm)
		setd(in.Rd, m.Mem.Read(d.EA))
	case isa.ST, isa.FST:
		d.EA = rv(in.Rs1) + uint64(in.Imm)
		m.Mem.Write(d.EA, rv(in.Rs2))

	case isa.BEQ:
		d.Taken = rv(in.Rs1) == rv(in.Rs2)
	case isa.BNE:
		d.Taken = rv(in.Rs1) != rv(in.Rs2)
	case isa.BLT:
		d.Taken = int64(rv(in.Rs1)) < int64(rv(in.Rs2))
	case isa.BGE:
		d.Taken = int64(rv(in.Rs1)) >= int64(rv(in.Rs2))

	case isa.JMP:
		d.Taken = true
		d.NextPC = int(in.Targ)
	case isa.JR:
		d.Taken = true
		d.NextPC = int(rv(in.Rs1))
	case isa.CALL:
		d.Taken = true
		setd(isa.RegLink, uint64(m.PC+1))
		d.NextPC = int(in.Targ)
	case isa.CALR:
		d.Taken = true
		tgt := int(rv(in.Rs1))
		setd(isa.RegLink, uint64(m.PC+1))
		d.NextPC = tgt
	case isa.RET:
		d.Taken = true
		d.NextPC = int(rv(isa.RegLink))

	case isa.HALT:
		m.Halted = true
		d.NextPC = m.PC

	default:
		panic(fmt.Sprintf("emu: unimplemented opcode %v", in.Op))
	}

	if in.Op.IsCondBranch() {
		if d.Taken {
			d.NextPC = int(in.Targ)
		} else {
			d.NextPC = m.PC + 1
		}
	}
}

// Run executes up to budget instructions or until HALT, discarding the
// records. It returns the number of instructions executed. It is the fast
// path used by profiling and training runs that attach their own observers.
func (m *Machine) Run(budget uint64, observe func(DynInst)) uint64 {
	var n uint64
	for n < budget && !m.Halted {
		d := m.Step()
		n++
		if observe != nil {
			observe(d)
		}
	}
	return n
}
