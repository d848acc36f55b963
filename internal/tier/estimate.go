package tier

import (
	"math"

	"r3dla/internal/core"
	"r3dla/internal/energy"
	"r3dla/internal/lab"
	"r3dla/internal/pipeline"
)

// maxModelCapacity bounds the Markov/MC queue size: transition matrices
// are O(cap²) and efficiency saturates long before this.
const maxModelCapacity = 96

// capacityOf maps a configuration to the effective fetch-queue capacity
// the frontend model prices: the core's fetch buffer, deepened by the DLA
// fetch buffer when that mechanism is on.
func capacityOf(opt core.Options) int {
	cc := pipeline.DefaultConfig()
	if opt.CoreCfg != nil {
		cc = *opt.CoreCfg
	}
	capacity := cc.FetchBufSize
	if opt.FetchBuffer {
		capacity += core.FetchBufferSize
	}
	if capacity < 1 {
		capacity = 1
	}
	if capacity > maxModelCapacity {
		capacity = maxModelCapacity
	}
	return capacity
}

// presetOptions returns the core options a bare preset resolves to — the
// reference point the estimators scale the preset's anchor away from.
func presetOptions(preset string) core.Options {
	p, ok := lab.PresetByName(preset)
	if !ok {
		return core.Options{}
	}
	cfg, err := lab.NewConfig(p)
	if err != nil {
		return core.Options{}
	}
	return cfg.SystemOptions()
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func orDef(n, def int) int {
	if n == 0 {
		return def
	}
	return n
}

// queueFactor prices a queue resized from ref to n: a saturating
// diminishing-returns curve n/(n+ref), normalized to 1 at n == ref, with
// weight w bounding the total swing to (1-w, 1+w).
func queueFactor(n, ref int, w float64) float64 {
	r := 2 * float64(n) / float64(n+ref)
	return 1 + w*(r-1)
}

// flip prices toggling one look-ahead feature away from the preset's
// default: per > 1 is the per-feature gain inferred from the workload's
// r3-vs-dla anchor spread.
func flip(on, ref bool, per float64) float64 {
	switch {
	case on && !ref:
		return per
	case !on && ref:
		return 1 / per
	}
	return 1
}

// coreFactor prices a non-default pipeline sizing with the classic
// sublinear width/window exponents.
func coreFactor(opt core.Options) float64 {
	if opt.CoreCfg == nil {
		return 1
	}
	def := pipeline.DefaultConfig()
	f := math.Pow(float64(opt.CoreCfg.DecodeWidth)/float64(def.DecodeWidth), 0.4)
	f *= math.Pow(float64(opt.CoreCfg.ROB)/float64(def.ROB), 0.25)
	return f
}

// structureFactor prices every structural delta between a cell's options
// and its preset's defaults that the frontend queue model does not
// already cover: queue sizings, feature toggles, core sizing, reboot
// cost, and a fixed skeleton version. spread is Calibration.Spread().
func structureFactor(opt, ref core.Options, spread float64, a Anchor) float64 {
	f := queueFactor(orDef(opt.BOQSize, core.DefaultBOQSize), orDef(ref.BOQSize, core.DefaultBOQSize), 0.10)
	f *= queueFactor(orDef(opt.FQSize, core.DefaultFQSize), orDef(ref.FQSize, core.DefaultFQSize), 0.05)
	f *= queueFactor(orDef(opt.VQSize, core.DefaultVQSize), orDef(ref.VQSize, core.DefaultVQSize), 0.03)

	// The r3/dla anchor gap is the joint gain of the R3 features; spread
	// it as a uniform per-feature multiplier across the three toggles the
	// frontend model doesn't price (the fetch buffer is priced there).
	per := math.Cbrt(clamp(spread, 0.8, 1.3))
	f *= flip(opt.T1, ref.T1, per)
	f *= flip(opt.ValueReuse, ref.ValueReuse, per)
	f *= flip(opt.Recycle, ref.Recycle, per)
	f *= flip(opt.WithStride, ref.WithStride, 1.01)
	f *= flip(opt.PrefetchOnly, ref.PrefetchOnly, 0.96)

	if opt.HasFixedVersion {
		// Deeper reductions speculate more and pay more divergence.
		f *= 1 - 0.01*float64(opt.FixedVersion)
	}

	// Costlier reboots hurt in proportion to how often this workload
	// actually reboots (the anchor rate).
	rate := a.RebootsPerKCycle / 1000
	rbRef := float64(orDef(int(ref.RebootCost), core.DefaultRebootCost))
	rbOpt := float64(orDef(int(opt.RebootCost), core.DefaultRebootCost))
	f *= (1 + rate*rbRef) / (1 + rate*rbOpt)

	f *= coreFactor(opt) / coreFactor(ref)
	return f
}

// synthesize builds a full RunResult around an estimated IPC, scaling the
// anchor's per-instruction rates to the requested budget. Cycles and IPC
// are made self-consistent (IPC = budget/cycles exactly), matching the
// invariant cycle-accurate results satisfy.
func synthesize(workload string, cfg lab.Config, budget uint64, ipc float64, a Anchor) *lab.RunResult {
	ipc = clamp(ipc, 1e-3, 16)
	cycles := uint64(math.Round(float64(budget) / ipc))
	if cycles < 1 {
		cycles = 1
	}
	out := &lab.RunResult{
		Workload:    workload,
		Config:      cfg.Key(),
		Budget:      budget,
		IPC:         float64(budget) / float64(cycles),
		Cycles:      cycles,
		Committed:   budget,
		Reboots:     uint64(math.Round(a.RebootsPerKCycle * float64(cycles) / 1000)),
		BOQWrong:    uint64(math.Round(a.BOQWrongPerKInst * float64(budget) / 1000)),
		L1DMPKI:     a.MPKI,
		DRAMTraffic: uint64(math.Round(a.DRAMPerKInst * float64(budget) / 1000)),
		EnergyJ:     a.EPI * float64(budget),
	}
	p := energy.DefaultParams()
	if secs := float64(cycles) / (p.ClockGHz * 1e9); secs > 0 {
		out.PowerW = out.EnergyJ / secs
	}
	return out
}
