package exp

import (
	"fmt"

	"r3dla/internal/analytic"
	"r3dla/internal/branch"
	"r3dla/internal/core"
	"r3dla/internal/emu"
	"r3dla/internal/limit"
	"r3dla/internal/memsys"
	"r3dla/internal/pipeline"
	"r3dla/internal/stats"
	"r3dla/internal/workloads"
)

// Fig1 regenerates Fig. 1: implicit parallelism of the spec-like
// workloads with moving windows of 128/512/2048, ideal vs real supply.
func Fig1(c *Context) *Report {
	windows := []int{128, 512, 2048}
	t := &stats.Table{
		Title: "Fig. 1: implicit parallelism (IPC), ideal vs real supply",
		Header: []string{"bench",
			"ideal:128", "ideal:512", "ideal:2048",
			"real:128", "real:512", "real:2048"},
	}
	suite := workloads.BySuite("spec")
	ipcs := make([][6]float64, len(suite))
	c.ParallelEach(len(suite), func(wi int) {
		c.Do(func() {
			prog, setup := suite[wi].Build(EvalSeed)
			for i, real := range []bool{false, true} {
				for j, win := range windows {
					ipcs[wi][i*3+j] = limit.IPC(prog, setup, limit.Config{
						Window: win, Real: real, Budget: c.Budget / 4,
					})
				}
			}
		})
	})
	geo := make([][]float64, 6)
	for wi, w := range suite {
		row := []string{w.Name}
		for k, ipc := range ipcs[wi] {
			row = append(row, fmt.Sprintf("%.2f", ipc))
			geo[k] = append(geo[k], ipc)
		}
		t.AddRow(row...)
	}
	grow := []string{"gmean"}
	for _, g := range geo {
		grow = append(grow, fmt.Sprintf("%.2f", stats.Geomean(g)))
	}
	t.AddRow(grow...)
	return NewReport(t)
}

// fbWorkload is the Fig. 5 case-study workload (the paper uses povray,
// the application with the most pronounced I-cache/trace-cache gap; our
// stand-in is the branchy recursive search gobmk, whose taken-branch
// breaks make the two supply mechanisms differ most).
const fbWorkload = "gobmk"

// measureSupplyDemand extracts the empirical supply and demand
// distributions of Appendix B at the figures' standard measurement
// budget (a quarter of the evaluation budget).
func measureSupplyDemand(c *Context, p *Prepared) (demand, supplyIC, supplyTC []float64) {
	return MeasureSupplyDemand(c, p, c.Budget/4)
}

// MeasureSupplyDemand extracts the empirical supply and demand
// distributions of Appendix B: demand under a perfect frontend, supply
// under an infinite backend (with and without taken-branch fetch breaks
// to model a trace cache). The three measurement runs are independent and
// dispatched to the worker pool. The tier package's calibrator runs this
// at its own (short) calibration budget, so the budget is a parameter.
//
// These runs stay outside the run memo: most supply runs deadlock (an
// infinite backend never resolves a mispredicted branch), and a bare
// pipeline.Core gives up on a deadlock after a third of the cycles a
// core.System spends.
func MeasureSupplyDemand(c *Context, p *Prepared, budget uint64) (demand, supplyIC, supplyTC []float64) {
	muts := []func(*pipeline.Config){
		func(cfg *pipeline.Config) { cfg.PerfectFrontend = true; cfg.TrackDemand = true },
		func(cfg *pipeline.Config) { cfg.InfiniteBackend = true; cfg.TrackSupply = true },
		func(cfg *pipeline.Config) {
			cfg.InfiniteBackend = true
			cfg.TrackSupply = true
			cfg.NoFetchBreakOnTaken = true
		},
	}
	ms := make([]*pipeline.Metrics, len(muts))
	c.ParallelEach(len(muts), func(i int) {
		c.Do(func() {
			cfg := pipeline.DefaultConfig()
			cfg.FetchWidth = 16   // Appendix B case study: 16-wide I-cache fetch
			cfg.FetchBufSize = 64 // don't let the buffer cap the supply measure
			muts[i](&cfg)
			feed := &pipeline.MachineFeeder{M: emu.NewMachine(p.Prog, p.Image().Fork())}
			dir := &pipeline.TageSource{P: branch.NewPredictor(branch.DefaultConfig())}
			coreC, _ := memsys.NewBaselineCore(cfg, feed, dir, memsys.Options{WithBOP: true})
			ms[i] = coreC.Run(budget)
		})
	})
	return ms[0].Demand.Dist(), ms[1].Supply.Dist(), ms[2].Supply.Dist()
}

// mustModel builds the Appendix B model from measured histograms.
// Histogram distributions are non-negative by construction, so a
// rejection here is a programming error, not a data condition.
func mustModel(demand, supply []float64) *analytic.Model {
	m, err := analytic.NewModel(demand, supply)
	if err != nil {
		panic(fmt.Sprintf("exp: measured distributions rejected: %v", err))
	}
	return m
}

// Fig5 regenerates Fig. 5: the analytic queue-length distributions for
// capacities 8 and 32 under I-cache and trace-cache supply (a), and the
// expected fetch bubbles as capacity varies (b).
func Fig5(c *Context) *Report {
	p := c.Prep(fbWorkload)
	demand, supplyIC, supplyTC := measureSupplyDemand(c, p)
	mIC := mustModel(demand, supplyIC)
	mTC := mustModel(demand, supplyTC)

	ta := &stats.Table{
		Title:  fmt.Sprintf("Fig. 5-a: P(queue length), workload %s", fbWorkload),
		Header: []string{"len", "icache cap8", "icache cap32", "trace cap8", "trace cap32"},
	}
	q8, q32 := mIC.QueueDist(8), mIC.QueueDist(32)
	t8, t32 := mTC.QueueDist(8), mTC.QueueDist(32)
	for i := 0; i <= 32; i++ {
		get := func(q []float64) string {
			if i < len(q) {
				return fmt.Sprintf("%.4f", q[i])
			}
			return "-"
		}
		ta.AddRow(fmt.Sprint(i), get(q8), get(q32), get(t8), get(t32))
	}
	tb := &stats.Table{
		Title:  "Fig. 5-b: expected fetch bubbles vs capacity",
		Header: []string{"capacity", "I-cache", "Trace-cache"},
	}
	for cap := 8; cap <= 32; cap += 4 {
		tb.AddRow(fmt.Sprint(cap),
			fmt.Sprintf("%.3f", mIC.ExpectedBubbles(cap)),
			fmt.Sprintf("%.3f", mTC.ExpectedBubbles(cap)))
	}
	return NewReport(ta, tb)
}

// Fig14 regenerates Fig. 14: theoretical vs simulated fetch-buffer
// queue-length distribution.
func Fig14(c *Context) *Report {
	p := c.Prep(fbWorkload)
	demand, supplyIC, _ := measureSupplyDemand(c, p)
	model := mustModel(demand, supplyIC)
	theory := model.QueueDist(32)

	cfg := pipeline.DefaultConfig()
	cfg.FetchWidth = 16
	cfg.FetchBufSize = 32
	cfg.TrackFetchQOcc = true
	r := c.RunShared(p, core.Options{Disable: true, WithBOP: true, CoreCfg: &cfg}, c.Budget/4, nil, nil)
	sim := r.MT.FetchQOcc.Dist()

	t := &stats.Table{
		Title:  fmt.Sprintf("Fig. 14: fetch buffer occupancy, theory vs simulation (%s)", fbWorkload),
		Header: []string{"len", "theoretical", "simulated"},
	}
	for i := 0; i <= 32; i++ {
		tv, sv := 0.0, 0.0
		if i < len(theory) {
			tv = theory[i]
		}
		if i < len(sim) {
			sv = sim[i]
		}
		t.AddRow(fmt.Sprint(i), fmt.Sprintf("%.4f", tv), fmt.Sprintf("%.4f", sv))
	}
	return NewReport(t)
}

// Fig15 regenerates Fig. 15: the distribution of skeleton versions chosen
// by online recycling, per spec workload.
func Fig15(c *Context) *Report {
	t := &stats.Table{
		Title:  "Fig. 15: fraction of instructions under each skeleton version (online recycle)",
		Header: []string{"bench", "a", "b", "c", "d", "e", "f"},
	}
	suite := workloads.BySuite("spec")
	use := make([][]uint64, len(suite))
	c.ParallelEach(len(suite), func(i int) {
		p := c.Prep(suite[i].Name)
		use[i] = c.RunCached(p, core.R3Options()).SkeletonUse
	})
	for i, w := range suite {
		var total uint64
		for _, u := range use[i] {
			total += u
		}
		row := []string{w.Name}
		for _, u := range use[i] {
			f := 0.0
			if total > 0 {
				f = float64(u) / float64(total)
			}
			row = append(row, fmt.Sprintf("%.2f", f))
		}
		t.AddRow(row...)
	}
	return NewReport(t)
}

// Table1 prints the modeled system configuration.
func Table1(c *Context) *Report {
	cfg := pipeline.DefaultConfig()
	t := &stats.Table{
		Title:  "Table I: system configuration (as modeled)",
		Header: []string{"unit", "configuration"},
	}
	t.AddRow("Core", fmt.Sprintf("%d-wide OoO, %d ROB, %d LSQ, %dINT/%dFP PRF, %dINT/%dMEM/%dFP FUs",
		cfg.DecodeWidth, cfg.ROB, cfg.LSQ, cfg.IntPRF, cfg.FPPRF, cfg.IntFUs, cfg.MemFUs, cfg.FPFUs))
	t.AddRow("Frontend", fmt.Sprintf("fetch %d/cycle, fetch buffer %d, redirect penalty %d",
		cfg.FetchWidth, cfg.FetchBufSize, cfg.RedirectPenalty))
	t.AddRow("Predictor", fmt.Sprintf("TAGE-lite + %d-entry BTB + %d-entry RAS", 1<<cfg.BTBBits, cfg.RASEntries))
	t.AddRow("Caches", "L1: 32KB I + 32KB D, 4-way, 64B, 3 cyc; L2: 256KB 8-way 9 cyc (+BOP); L3: 2MB 16-way 36 cyc")
	t.AddRow("DRAM", "DDR3-1600-like, 2 channels, 16 banks/chan, open row")
	t.AddRow("DLA", fmt.Sprintf("BOQ %d, FQ %d, VPT %d, T1 16 entries, LCT 16 entries, reboot %d cyc",
		core.DefaultBOQSize, core.DefaultFQSize, core.DefaultVQSize, core.DefaultRebootCost))
	return NewReport(t)
}
