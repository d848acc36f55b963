// Package workloads provides the 25 synthetic benchmarks used to
// reproduce the paper's evaluation. Each workload reproduces the dominant
// microarchitectural behaviour of one benchmark from the paper's four
// suites (SPEC2006, CRONO, STARBENCH, NPB): its memory access structure
// (strided / pointer-chasing / gather / scatter), branch behaviour, and
// compute mix. Workloads are parameterized by an input seed; the harness
// profiles on one seed (the "training input") and evaluates on another,
// exactly as the paper uses training inputs for skeleton construction.
package workloads

import (
	"math/rand"
	"slices"
	"sort"

	"r3dla/internal/emu"
	"r3dla/internal/isa"
)

// Workload is one benchmark: a program builder and its data initializer.
// The registry builds each Workload once and All, BySuite and ByName
// share those values, so they are read-only: never write through a
// *Workload they return.
type Workload struct {
	Name  string
	Suite string // "spec", "crono", "star", "npb"
	Build func(seed int64) (*isa.Program, func(*emu.Memory))
}

// Suites lists the suite names in the paper's presentation order.
var Suites = []string{"spec", "crono", "star", "npb"}

// registry is every workload in deterministic order, built once.
var registry = slices.Concat(specSuite(), cronoSuite(), starSuite(), npbSuite())

// All returns every workload in deterministic order. The slice is the
// caller's own; the workloads are shared.
func All() []*Workload { return slices.Clone(registry) }

// BySuite returns the workloads of one suite.
func BySuite(suite string) []*Workload {
	var out []*Workload
	for _, w := range registry {
		if w.Suite == suite {
			out = append(out, w)
		}
	}
	return out
}

// ByName returns the named workload or nil, without allocating (the
// service validates every /v1/runs request's workload through it).
func ByName(name string) *Workload {
	for _, w := range registry {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// Names returns all workload names.
func Names() []string {
	var out []string
	for _, w := range All() {
		out = append(out, w.Name)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------- common

// Register conventions shared by the builders below.
const (
	rA = 1 + iota // generic temporaries / loop counters
	rB
	rC
	rD
	rE
	rF
	rG
	rH
	rI
	rJ
	rK
	rL
	rM
	rN
	rO
	rP
)

// Memory regions (byte addresses). Regions are spaced far apart so
// footprints never collide.
const (
	regA       = 0x0100_0000
	regB       = 0x0800_0000
	regC       = 0x1000_0000
	regD       = 0x1800_0000
	regE       = 0x2000_0000
	regF       = 0x2800_0000
	regScratch = 0x3000_0000 // write-only bookkeeping sink
)

// fillWords writes n sequential words at base with values from gen.
func fillWords(m *emu.Memory, base uint64, n int, gen func(i int) uint64) {
	for i := 0; i < n; i++ {
		m.Write(base+uint64(i)*8, gen(i))
	}
}

// csr is a compressed-sparse-row graph laid out in memory:
//
//	rowPtr: regA + v*8        (V+1 words)
//	colIdx: regB + e*8        (E words)
//	data1:  regC + v*8        (per-vertex value)
//	data2:  regD + v*8        (per-vertex scratch)
type csr struct {
	V, E int
}

// buildCSR materializes a random graph with out-degree ~deg. It draws
// each vertex's degree and then its targets, vertex by vertex, and then
// writes the row pointers and the targets in a pass each, so that
// consecutive writes stay on one page.
func buildCSR(m *emu.Memory, rng *rand.Rand, v, deg int) csr {
	rowPtr := make([]int, v+1)
	colIdx := make([]int32, 0, v*(deg+1)) // the mean degree is deg+1/2
	for i := 0; i < v; i++ {
		for d := 1 + rng.Intn(deg*2); d > 0; d-- {
			colIdx = append(colIdx, int32(rng.Intn(v)))
		}
		rowPtr[i+1] = len(colIdx)
	}
	for i, off := range rowPtr {
		m.Write(regA+uint64(i)*8, uint64(off))
	}
	for e, c := range colIdx {
		m.Write(regB+uint64(e)*8, uint64(c))
	}
	return csr{V: v, E: len(colIdx)}
}

// emitXorshift appends a xorshift64 step on reg, clobbering tmp.
func emitXorshift(b *isa.Builder, reg, tmp uint8) {
	b.I(isa.SHLI, tmp, reg, 13)
	b.R(isa.XOR, reg, reg, tmp)
	b.I(isa.SHRI, tmp, reg, 7)
	b.R(isa.XOR, reg, reg, tmp)
	b.I(isa.SHLI, tmp, reg, 17)
	b.R(isa.XOR, reg, reg, tmp)
}

// Payload registers: bookkeeping work uses registers no builder touches
// for control or addressing, so the skeleton generator provably excludes
// the payload (it feeds neither branches nor any included load's address).
// This mirrors real programs, whose loop bodies mostly transform loaded
// data rather than compute addresses — exactly the work a look-ahead
// skeleton strips (the paper's skeletons average ~1/3 of the program).
const (
	pR1 = 20
	pR2 = 21
	pR3 = 22
)

// emitPayloadInt appends ~n integer ALU instructions of loop-carried
// data processing seeded from src, ending in a store to the write-only
// scratch region (never reloaded, so the whole chain is skeleton-free).
func emitPayloadInt(b *isa.Builder, src uint8, n int) {
	ops := []func(i int64){
		func(i int64) { b.R(isa.ADD, pR1, pR1, src) },
		func(i int64) { b.R(isa.XOR, pR2, pR2, pR1) },
		func(i int64) { b.I(isa.SHRI, pR3, pR2, 5) },
		func(i int64) { b.R(isa.SUB, pR1, pR1, pR3) },
		func(i int64) { b.R(isa.MUL, pR2, pR2, pR1) },
		func(i int64) { b.I(isa.ADDI, pR1, pR1, 17) },
		func(i int64) { b.I(isa.SHLI, pR3, pR1, 3) },
		func(i int64) { b.R(isa.OR, pR2, pR2, pR3) },
	}
	for i := 0; i < n; i++ {
		ops[i%len(ops)](int64(i))
	}
	b.Li(pR3, regScratch)
	b.St(pR2, pR3, 0)
}

// emitPayloadFP appends ~n floating-point instructions of loop-carried
// data processing seeded from the FP register fsrc, ending in a store to
// the scratch region.
func emitPayloadFP(b *isa.Builder, fsrc uint8, n int) {
	fa, fb := isa.FReg(10), isa.FReg(11)
	ops := []func(){
		func() { b.R(isa.FADD, fa, fa, fsrc) },
		func() { b.R(isa.FMUL, fb, fb, fsrc) },
		func() { b.R(isa.FSUB, fa, fa, fb) },
		func() { b.R(isa.FADD, fb, fb, fa) },
		func() { b.R(isa.FMUL, fa, fa, fa) },
	}
	for i := 0; i < n; i++ {
		ops[i%len(ops)]()
	}
	b.Li(pR3, regScratch+8)
	b.Fst(fa, pR3, 0)
}
