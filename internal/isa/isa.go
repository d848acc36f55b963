// Package isa defines the register-transfer instruction set used by every
// simulated program in this repository.
//
// The ISA is a small load/store RISC: 32 integer registers (R0 hardwired to
// zero, R31 is the link register), 32 floating-point registers, 64-bit
// memory words, PC-relative control flow expressed as static instruction
// indices. It is deliberately simple — the paper's mechanisms (skeleton
// extraction, look-ahead, value reuse) depend only on dataflow, control
// flow, and memory behaviour, all of which this ISA expresses directly.
package isa

import "fmt"

// Op enumerates instruction opcodes.
type Op uint8

// Opcode space. Grouped by functional class; the groups matter to the
// timing model (functional unit selection and latency).
const (
	NOP Op = iota

	// Integer ALU, register-register.
	ADD
	SUB
	MUL
	DIV
	AND
	OR
	XOR
	SHL
	SHR
	SLT // set if less-than (signed)

	// Integer ALU, register-immediate.
	ADDI
	ANDI
	ORI
	XORI
	SHLI
	SHRI
	SLTI
	LUI // load upper immediate: Rd = Imm << 32

	// Floating point (operates on the F register file).
	FADD
	FSUB
	FMUL
	FDIV
	FCVT // int reg -> float reg
	FCMP // float compare: int Rd = (Fa < Fb)

	// Memory. Effective address = IReg[Rs1] + Imm, 8-byte words.
	LD  // Rd = mem[ea]
	ST  // mem[ea] = Rs2
	FLD // Fd = mem[ea]
	FST // mem[ea] = Fs2

	// Control flow. Targ is a static instruction index.
	BEQ  // if Rs1 == Rs2 goto Targ
	BNE  // if Rs1 != Rs2 goto Targ
	BLT  // if Rs1 <  Rs2 (signed) goto Targ
	BGE  // if Rs1 >= Rs2 (signed) goto Targ
	JMP  // unconditional direct jump
	JR   // indirect jump through Rs1
	CALL // R31 = return index; goto Targ
	CALR // indirect call through Rs1
	RET  // goto R31

	HALT // stop the program

	numOps
)

// NumOps reports the size of the opcode space (for table sizing).
const NumOps = int(numOps)

var opNames = [...]string{
	NOP: "nop", ADD: "add", SUB: "sub", MUL: "mul", DIV: "div",
	AND: "and", OR: "or", XOR: "xor", SHL: "shl", SHR: "shr", SLT: "slt",
	ADDI: "addi", ANDI: "andi", ORI: "ori", XORI: "xori",
	SHLI: "shli", SHRI: "shri", SLTI: "slti", LUI: "lui",
	FADD: "fadd", FSUB: "fsub", FMUL: "fmul", FDIV: "fdiv",
	FCVT: "fcvt", FCMP: "fcmp",
	LD: "ld", ST: "st", FLD: "fld", FST: "fst",
	BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge",
	JMP: "jmp", JR: "jr", CALL: "call", CALR: "calr", RET: "ret",
	HALT: "halt",
}

// String returns the mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Class buckets opcodes by the functional unit they occupy.
type Class uint8

// Functional-unit classes.
const (
	ClassNop Class = iota
	ClassALU
	ClassMul
	ClassDiv
	ClassFP
	ClassFDiv
	ClassLoad
	ClassStore
	ClassBranch // conditional branches
	ClassJump   // unconditional control (jmp/jr/call/calr/ret)
)

// Class reports the functional-unit class of the opcode: one load from
// a table built once from classOf, since the timing model asks on every
// fetch, dispatch, issue and commit.
func (o Op) Class() Class { return classes[o] }

// classes is classOf for every value an Op can hold.
var classes = func() (t [256]Class) {
	for o := range t {
		t[o] = classOf(Op(o))
	}
	return t
}()

// classOf buckets an opcode by the functional unit it occupies.
func classOf(o Op) Class {
	switch o {
	case ADD, SUB, AND, OR, XOR, SHL, SHR, SLT,
		ADDI, ANDI, ORI, XORI, SHLI, SHRI, SLTI, LUI:
		return ClassALU
	case MUL:
		return ClassMul
	case DIV:
		return ClassDiv
	case FADD, FSUB, FMUL, FCVT, FCMP:
		return ClassFP
	case FDIV:
		return ClassFDiv
	case LD, FLD:
		return ClassLoad
	case ST, FST:
		return ClassStore
	case BEQ, BNE, BLT, BGE:
		return ClassBranch
	case JMP, JR, CALL, CALR, RET, HALT:
		return ClassJump
	default:
		return ClassNop
	}
}

// IsCondBranch reports whether the opcode is a conditional branch.
func (o Op) IsCondBranch() bool { return o.Class() == ClassBranch }

// IsControl reports whether the opcode redirects control flow.
func (o Op) IsControl() bool {
	c := o.Class()
	return c == ClassBranch || c == ClassJump
}

// IsMem reports whether the opcode accesses data memory.
func (o Op) IsMem() bool {
	c := o.Class()
	return c == ClassLoad || c == ClassStore
}

// IsLoad reports whether the opcode reads data memory.
func (o Op) IsLoad() bool { return o.Class() == ClassLoad }

// IsStore reports whether the opcode writes data memory.
func (o Op) IsStore() bool { return o.Class() == ClassStore }

// IsIndirect reports whether the control target comes from a register.
func (o Op) IsIndirect() bool { return o == JR || o == CALR || o == RET }

// Register file layout: a single 64-entry architectural space. Integer
// registers occupy [0,32), floating-point registers occupy [32,64). Reg 0
// is hardwired to zero; RegLink (R31) holds return indices.
const (
	NumIntRegs = 32
	NumFPRegs  = 32
	NumRegs    = NumIntRegs + NumFPRegs
	RegZero    = 0
	RegLink    = 31
	FPRegBase  = NumIntRegs
	NoReg      = 0xFF // sentinel: operand slot unused
	InstBytes  = 4    // instruction footprint for I-cache addressing
)

// FReg converts an FP register number (0..31) to its architectural index.
func FReg(n uint8) uint8 { return FPRegBase + n }

// Inst is a single static instruction.
type Inst struct {
	Op   Op
	Rd   uint8 // destination register (NoReg if none)
	Rs1  uint8 // first source (NoReg if none)
	Rs2  uint8 // second source (NoReg if none)
	Imm  int64 // immediate operand / memory displacement
	Targ int32 // direct control-flow target (static instruction index)
}

// Dests returns the destination register or NoReg.
func (in *Inst) Dest() uint8 {
	switch in.Op {
	case ST, FST, BEQ, BNE, BLT, BGE, JMP, JR, RET, HALT, NOP:
		return NoReg
	case CALL, CALR:
		return RegLink
	}
	return in.Rd
}

// Sources appends the source architectural registers of the instruction to
// dst and returns it. RegZero sources are included (they read as zero but
// create no dependence in practice; callers may filter).
func (in *Inst) Sources(dst []uint8) []uint8 {
	switch in.Op {
	case NOP, HALT, JMP, CALL, LUI:
		return dst
	case ADDI, ANDI, ORI, XORI, SHLI, SHRI, SLTI, LD, FLD, JR, CALR:
		return append(dst, in.Rs1)
	case RET:
		return append(dst, RegLink)
	case ST, FST:
		return append(dst, in.Rs1, in.Rs2)
	case FCVT:
		return append(dst, in.Rs1)
	default: // three-operand ALU/FP/branch forms
		return append(dst, in.Rs1, in.Rs2)
	}
}

func (in *Inst) String() string {
	switch in.Op.Class() {
	case ClassLoad:
		return fmt.Sprintf("%-5s r%d, %d(r%d)", in.Op, in.Rd, in.Imm, in.Rs1)
	case ClassStore:
		return fmt.Sprintf("%-5s r%d, %d(r%d)", in.Op, in.Rs2, in.Imm, in.Rs1)
	case ClassBranch:
		return fmt.Sprintf("%-5s r%d, r%d, @%d", in.Op, in.Rs1, in.Rs2, in.Targ)
	case ClassJump:
		if in.Op.IsIndirect() {
			return fmt.Sprintf("%-5s r%d", in.Op, in.Rs1)
		}
		return fmt.Sprintf("%-5s @%d", in.Op, in.Targ)
	default:
		return fmt.Sprintf("%-5s r%d, r%d, r%d, #%d", in.Op, in.Rd, in.Rs1, in.Rs2, in.Imm)
	}
}

// Program is a static program: a flat instruction sequence plus metadata.
// PCs are static instruction indices; the I-cache address of index i is
// uint64(i) * InstBytes.
type Program struct {
	Name   string
	Insts  []Inst
	Entry  int
	Labels map[string]int // label -> instruction index (for tooling)
}

// PCAddr converts a static instruction index to its I-cache byte address.
func PCAddr(pc int) uint64 { return uint64(pc) * InstBytes }

// Validate checks structural invariants: targets in range, register
// numbers in range. It returns the first problem found.
func (p *Program) Validate() error {
	n := int32(len(p.Insts))
	for i := range p.Insts {
		in := &p.Insts[i]
		if in.Op >= numOps {
			return fmt.Errorf("%s@%d: bad opcode %d", p.Name, i, in.Op)
		}
		if in.Op.IsControl() && !in.Op.IsIndirect() && in.Op != HALT {
			if in.Targ < 0 || in.Targ >= n {
				return fmt.Errorf("%s@%d: %s target %d out of range [0,%d)", p.Name, i, in.Op, in.Targ, n)
			}
		}
		for _, r := range []uint8{in.Rd, in.Rs1, in.Rs2} {
			if r != NoReg && r >= NumRegs {
				return fmt.Errorf("%s@%d: register %d out of range", p.Name, i, r)
			}
		}
	}
	if p.Entry < 0 || p.Entry >= len(p.Insts) {
		return fmt.Errorf("%s: entry %d out of range", p.Name, p.Entry)
	}
	return nil
}
