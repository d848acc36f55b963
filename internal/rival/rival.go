// Package rival implements the related designs the paper compares against
// in Fig. 9-b: B-Fetch (branch-predictor-directed prefetching), SlipStream
// (an A-stream/R-stream leader-follower with ineffectual-code removal),
// and CRE (the Continuous Runahead Engine prefetching delinquent-load
// chains into L1). SlipStream and CRE are realized as configurations of
// the DLA machinery with their respective leader programs; B-Fetch is a
// standalone prefetcher wired into a baseline core.
package rival

import (
	"r3dla/internal/branch"
	"r3dla/internal/core"
	"r3dla/internal/emu"
	"r3dla/internal/isa"
	"r3dla/internal/memsys"
	"r3dla/internal/pipeline"
)

// RunSlipStream executes prog under a SlipStream-style leader thread.
func RunSlipStream(prog *isa.Program, setup func(*emu.Memory), prof *core.Profile, budget uint64) *core.Results {
	set := core.GenerateSlipstream(prog, prof)
	sys := core.NewSystem(prog, setup, set, prof, core.Options{WithBOP: true})
	return sys.Run(budget)
}

// RunCRE executes prog with a Continuous-Runahead-style helper: chains of
// delinquent loads prefetching into the MT's L1, no branch outcome
// delivery. The helper runs on a small runahead engine (the original is a
// 2-wide, 32-entry buffer at the memory controller), not a full core.
func RunCRE(prog *isa.Program, setup func(*emu.Memory), prof *core.Profile, budget uint64) *core.Results {
	set := core.GenerateCRE(prog, prof)
	engine := pipeline.DefaultConfig()
	engine.FetchWidth = 4
	engine.DecodeWidth = 2
	engine.IssueWidth = 2
	engine.CommitWidth = 2
	engine.ROB = 32
	engine.LSQ = 16
	engine.IntFUs = 2
	engine.MemFUs = 2
	engine.FPFUs = 1
	sys := core.NewSystem(prog, setup, set, prof, core.Options{
		WithBOP: true, PrefetchOnly: true, LTCfg: &engine,
	})
	return sys.Run(budget)
}

// bfetchEntry tracks one load PC observed downstream of a branch. The
// B-Fetch table maps branch PCs to up to 4 downstream loads with their
// strides; on a branch prediction it prefetches each load's projected
// next address (the lookahead the real design computes along the
// predicted path).
type bfetchEntry struct {
	loadPC   int32
	lastAddr uint64
	stride   int64
	conf     int8
	valid    bool
}

// RunBFetch executes prog on a baseline core (Table I + BOP) augmented
// with a B-Fetch prefetcher.
func RunBFetch(prog *isa.Program, setup func(*emu.Memory), budget uint64) *pipeline.Metrics {
	mem := emu.NewMemory()
	if setup != nil {
		setup(mem)
	}
	mach := emu.NewMachine(prog, mem)
	feed := &pipeline.MachineFeeder{M: mach, Budget: 0}

	table := make(map[int]*[4]bfetchEntry)
	var lastBranchPC int

	tage := &pipeline.TageSource{P: branch.NewPredictor(branch.DefaultConfig())}
	var c *pipeline.Core
	var priv *memsys.Private

	dir := pipeline.DirFunc(func(pc int, actual bool, now uint64) (bool, bool) {
		pred, ok := tage.PredictAndTrain(pc, actual, now)
		lastBranchPC = pc
		// Prefetch along the predicted path: project each associated
		// load one stride ahead.
		if ents, hit := table[pc]; hit {
			for i := range ents {
				e := &ents[i]
				if e.valid && e.conf >= 2 && e.stride != 0 {
					priv.L1D.Access(uint64(int64(e.lastAddr)+2*e.stride), false, true, now)
				}
			}
		}
		return pred, ok
	})

	c, priv = memsys.NewBaselineCore(pipeline.DefaultConfig(), feed, dir, memsys.Options{WithBOP: true})
	inner := priv.LoadHook()
	c.Hooks.OnLoadAccess = func(d *emu.DynInst, level int, done, now uint64) {
		inner(d, level, done, now)
		// Train: associate this load with the most recent branch.
		ents := table[lastBranchPC]
		if ents == nil {
			ents = new([4]bfetchEntry)
			table[lastBranchPC] = ents
		}
		var slot *bfetchEntry
		for i := range ents {
			if ents[i].valid && ents[i].loadPC == int32(d.PC) {
				slot = &ents[i]
				break
			}
		}
		if slot == nil {
			for i := range ents {
				if !ents[i].valid {
					slot = &ents[i]
					break
				}
			}
		}
		if slot == nil {
			slot = &ents[0]
			*slot = bfetchEntry{}
		}
		if !slot.valid || slot.loadPC != int32(d.PC) {
			*slot = bfetchEntry{loadPC: int32(d.PC), lastAddr: d.EA, valid: true}
			return
		}
		stride := int64(d.EA) - int64(slot.lastAddr)
		if stride == slot.stride {
			if slot.conf < 3 {
				slot.conf++
			}
		} else {
			if slot.conf > 0 {
				slot.conf--
			} else {
				slot.stride = stride
			}
		}
		slot.lastAddr = d.EA
	}
	return c.Run(budget)
}
