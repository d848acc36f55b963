package main

import (
	"time"

	"r3dla/internal/branch"
	"r3dla/internal/cache"
	"r3dla/internal/core"
	"r3dla/internal/emu"
	"r3dla/internal/exp"
	"r3dla/internal/lab"
	"r3dla/internal/memsys"
	"r3dla/internal/workloads"
)

// replaySteps is how many instructions of each workload's evaluation
// stream the leaf replays step through.
const replaySteps = 40_000

// gridSimCycles is the total of the reproduce grid's simulated MT cycles
// at reproduceBudget when the benchmark was written. A change that only
// speeds the simulator up must leave it as it is; one that changes the
// model moves it, and core.sim_cycles_mismatch shows by how much.
const gridSimCycles = 15_859_108

// Sinks keep the compiler from discarding the replayed calls.
var (
	sinkInst   emu.DynInst
	sinkBool   bool
	sinkAccess cache.Result
)

// cellCounts are the per-cell event counts the attribution multiplies
// leaf costs by, summed over both cores.
type cellCounts struct {
	fetched, condBranches, memOps uint64
}

func countsOf(r *core.Results) cellCounts {
	c := cellCounts{r.MT.Fetched, r.MT.CondBranches, r.MT.Loads + r.MT.Stores}
	if r.LT != nil {
		c.fetched += r.LT.Fetched
		c.condBranches += r.LT.CondBranches
		c.memOps += r.LT.Loads + r.LT.Stores
	}
	return c
}

// attribute measures the simulation substrate layer by layer for the
// reproduce grid and fills layer:
//   - every grid cell once more straight through the engine's unmemoized
//     runner (exp.Context.RunDLAAt, the call the Lab's memo wraps) on
//     an engine of the Lab's width, with its event counts;
//   - emu, branch and cache replays of each workload's recorded stream;
//   - core.Collect and core.Generate on each workload's programs;
//   - each replay cost times the cells' event counts, as a share of the
//     measured cell time; the residual is the pipeline and queue model.
func attribute(e *env, preps []*lab.Prepared, cols []gridConfig, tr *tracer, layer map[string]metric) {
	ec := exp.NewContext(reproduceBudget)
	ec.Jobs = e.jobs
	n := len(preps) * len(cols)
	counts := make([]cellCounts, n)
	cellNS := make([]float64, n)
	cycles := make([]uint64, n)
	// As many callers as the engine has workers, so no cell waits for one.
	forEach(n, e.jobs, func(i int) {
		p, col := preps[i/len(cols)], cols[i%len(cols)]
		id := tr.begin("core.cell."+col.preset, noSpan)
		t0 := time.Now()
		r := ec.RunDLAAt(p, col.cfg.SystemOptions(), reproduceBudget)
		cellNS[i] = float64(time.Since(t0).Nanoseconds())
		tr.finish(id)
		counts[i], cycles[i] = countsOf(r), r.MT.Cycles
	})
	spans := tr.snapshot()

	var total cellCounts
	var simCycles uint64
	for i := range counts {
		total.fetched += counts[i].fetched
		total.condBranches += counts[i].condBranches
		total.memOps += counts[i].memOps
		simCycles += cycles[i]
	}
	busyNS := sum(cellNS)
	leaf := replayLeaves(preps, tr)
	emuShare := leaf.stepNS * float64(total.fetched) / busyNS
	brShare := leaf.tageNS * float64(total.condBranches) / busyNS
	cacheShare := leaf.accessNS * float64(total.memOps) / busyNS
	collectMS, generateMS := timePrepStages(tr)

	for _, p := range []string{lab.Baseline.Name(), lab.DLA.Name(), lab.R3.Name()} {
		layer["core.cell_ms."+p] = metric{p50(spans, "core.cell."+p), "ms"}
	}
	layer["core.ns_per_cycle"] = metric{busyNS / float64(simCycles), "ns"}
	layer["core.sim_cycles_mismatch"] = metric{mismatch(int(simCycles), gridSimCycles), "count"}
	layer["core.collect_ms"] = metric{collectMS, "ms"}
	layer["core.generate_ms"] = metric{generateMS, "ms"}
	layer["emu.step_ns"] = metric{leaf.stepNS, "ns"}
	layer["branch.tage_ns"] = metric{leaf.tageNS, "ns"}
	layer["cache.access_ns"] = metric{leaf.accessNS, "ns"}
	layer["emu.share"] = metric{emuShare, "ratio"}
	layer["branch.share"] = metric{brShare, "ratio"}
	layer["cache.share"] = metric{cacheShare, "ratio"}
	layer["pipeline.residual_share"] = metric{1 - emuShare - brShare - cacheShare, "ratio"}
}

// leafCosts are the per-call host costs of the substrate's leaf layers.
type leafCosts struct {
	stepNS, tageNS, accessNS float64
}

type access struct {
	addr  uint64
	write bool
}

type outcome struct {
	pc    int
	taken bool
}

// replayLeaves times the leaf layers on each workload's own stream:
// emu.Machine.Step over the first replaySteps instructions; TAGE
// Predict+Update over the conditional branches of that stream; and an
// L1D Access through a fresh memsys private stack over its loads and
// stores.
func replayLeaves(preps []*lab.Prepared, tr *tracer) leafCosts {
	var stepT, tageT, accT time.Duration
	var steps, branches, accesses int
	for _, p := range preps {
		m := emu.NewMachine(p.Prog, p.Image().Fork())
		id := tr.begin("emu.Machine.Step", noSpan)
		t0 := time.Now()
		k := 0
		for ; k < replaySteps && !m.Halted; k++ {
			sinkInst = m.Step()
		}
		stepT += time.Since(t0)
		tr.finish(id)
		steps += k

		var outs []outcome
		var accs []access
		m = emu.NewMachine(p.Prog, p.Image().Fork())
		for j := 0; j < k; j++ {
			d := m.Step()
			switch op := d.In.Op; {
			case op.IsCondBranch():
				outs = append(outs, outcome{d.PC, d.Taken})
			case op.IsLoad(), op.IsStore():
				accs = append(accs, access{d.EA, op.IsStore()})
			}
		}

		pred := branch.NewPredictor(branch.DefaultConfig())
		id = tr.begin("branch.Predictor", noSpan)
		t0 = time.Now()
		for _, o := range outs {
			sinkBool = pred.Predict(o.pc)
			pred.Update(o.pc, o.taken)
		}
		tageT += time.Since(t0)
		tr.finish(id)
		branches += len(outs)

		priv := memsys.NewPrivate(memsys.NewShared(), memsys.Options{})
		id = tr.begin("cache.Cache.Access", noSpan)
		t0 = time.Now()
		for i, a := range accs {
			sinkAccess = priv.L1D.Access(a.addr, a.write, false, uint64(2*i))
		}
		accT += time.Since(t0)
		tr.finish(id)
		accesses += len(accs)
	}
	return leafCosts{
		stepNS:   float64(stepT.Nanoseconds()) / float64(max(steps, 1)),
		tageNS:   float64(tageT.Nanoseconds()) / float64(max(branches, 1)),
		accessNS: float64(accT.Nanoseconds()) / float64(max(accesses, 1)),
	}
}

// timePrepStages times preparation's two stages on every workload, as
// exp's cold prep runs them: core.Collect profiles the training program
// and core.Generate builds skeletons for the evaluation program. It
// returns each stage's median in ms.
func timePrepStages(tr *tracer) (collectMS, generateMS float64) {
	var collect, generate []float64
	for _, w := range workloads.All() {
		train, trainSetup := w.Build(exp.TrainSeed)
		eval, _ := w.Build(exp.EvalSeed)
		id := tr.begin("core.Collect", noSpan)
		t0 := time.Now()
		prof := core.Collect(train, trainSetup, reproduceBudget/2)
		collect = append(collect, ms(time.Since(t0)))
		tr.finish(id)
		id = tr.begin("core.Generate", noSpan)
		t0 = time.Now()
		core.Generate(eval, prof)
		generate = append(generate, ms(time.Since(t0)))
		tr.finish(id)
	}
	return median(collect), median(generate)
}
