package pipeline

import (
	"testing"

	"r3dla/internal/emu"
	"r3dla/internal/isa"
)

// loadStoreChainProgram: loads feeding multiply and add chains, a
// loop-carried accumulator, stores that the next load forwards from,
// and a base pointer walking a 64 KB region (twice the L1D), so cache
// misses, forwarding and wakeups all recur for as long as it runs.
func loadStoreChainProgram(iters int64) *isa.Program {
	b := isa.NewBuilder("ldst")
	b.Li(1, iters)
	b.Li(2, 1<<20)
	b.Label("loop")
	b.I(isa.ADDI, 8, 8, 64)
	b.I(isa.ANDI, 8, 8, 0xFFFF)
	b.R(isa.ADD, 9, 2, 8)
	for i := int64(0); i < 4; i++ {
		b.Ld(3, 9, i*8)
		b.R(isa.MUL, 4, 3, 3)
		b.R(isa.ADD, 5, 5, 4)
		b.St(5, 9, 32+i*8)
		b.Ld(6, 9, 32+i*8)
		b.R(isa.XOR, 7, 7, 6)
		b.I(isa.ADDI, 7, 7, 1)
	}
	b.I(isa.ADDI, 1, 1, -1)
	b.Br(isa.BNE, 1, isa.RegZero, "loop")
	b.Halt()
	return b.Program()
}

// The per-cycle path (commit → issue → dispatch → fetch) must be
// allocation-free in steady state: one heap object per cycle — which is
// what the escaping fetch-hint local used to cost — dominates the whole
// simulator's allocation profile (see DESIGN.md §8). The core is warmed
// up first so one-time growth (predictor tables, cold cache fills) is
// excluded. A TargetHint hook is installed even though these programs
// have no indirect branches: escape analysis is static, so if fetch ever
// goes back to passing &local to the hook, every fetched instruction
// allocates whether or not the hook fires — exactly what this test must
// catch. The second program drives the wakeup links, the store FIFO and
// skip validation, which independent ALU ops never touch.
func TestTickSteadyStateAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		prog *isa.Program
		cfg  func(*Config)
		vals ValueSource
	}{
		{"independent-alu", independentALUProgram(10_000_000), nil, nil},
		{"loads-stores-chains", loadStoreChainProgram(10_000_000),
			func(c *Config) { c.SkipValidation = true }, everyFifthWrong{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCore(tc.prog, 80, tc.cfg)
			c.Vals = tc.vals
			c.Hooks.TargetHint = func(d *emu.DynInst) (int, bool) { return 0, false }
			c.Run(20_000) // warm-up: budget stops the run long before the program halts
			if c.Done() {
				t.Fatal("warm-up ran the program to completion; steady-state measurement needs remaining work")
			}
			allocs := testing.AllocsPerRun(20_000, func() { c.Tick() })
			if allocs != 0 {
				t.Errorf("steady-state Tick allocates %.2f objects per cycle, want 0", allocs)
			}
			if tc.vals != nil && (c.M.Stores == 0 || c.M.Skipped == 0 || c.M.LoadLevelHits[4] == 0) {
				t.Errorf("program missed the paths it is here for: %d stores, %d skipped, %d DRAM loads",
					c.M.Stores, c.M.Skipped, c.M.LoadLevelHits[4])
			}
		})
	}
}
