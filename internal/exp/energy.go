package exp

import (
	"r3dla/internal/core"
	"r3dla/internal/energy"
	"r3dla/internal/memsys"
	"r3dla/internal/pipeline"
)

// RunEnergy totals one run's energy under p: cpuJ covers both cores plus
// the shared L3 (the CPU total of Fig. 10a), dramJ the memory system
// (Fig. 10b). Wall time for every component is the MT's cycle count —
// the coupled system runs until the main thread retires its budget, so
// static energy accrues for that duration on both cores. The Lab's
// RunResult energy fields and the Fig. 10 experiment both derive from
// this one accounting, so a run's reported joules and the paper artifact
// can never disagree.
func RunEnergy(r *core.Results, p energy.Params) (cpuJ, dramJ float64) {
	wall := r.MT.Cycles
	cpuJ = coreEnergy(r.MT, &r.MTMem, wall, p).TotalJ()
	if r.LT != nil {
		cpuJ += coreEnergy(r.LT, &r.LTMem, wall, p).TotalJ()
	}
	cpuJ += energy.Shared(&r.L3, wall, p).TotalJ()
	dramJ = energy.DRAM(&r.DRAM, wall, p).TotalJ()
	return cpuJ, dramJ
}

// coreEnergy is one core's energy breakdown: its pipeline metrics and
// private cache counters, powered for wall cycles.
func coreEnergy(m *pipeline.Metrics, mem *memsys.Stats, wall uint64, p energy.Params) energy.Breakdown {
	return energy.Core(energy.CoreActivity{
		Metrics: m, L1I: &mem.L1I, L1D: &mem.L1D, L2: &mem.L2, WallCycles: wall,
	}, p)
}
