package exp

import (
	"fmt"

	"r3dla/internal/analytic"
	"r3dla/internal/core"
	"r3dla/internal/limit"
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

// appendixBRuns returns the Appendix B measurement runs, keyed
// single-core runs with BOP: demand under a perfect frontend, then supply
// under an infinite backend with taken-branch fetch breaks (an I-cache)
// and without (a trace cache).
func appendixBRuns() []core.Options {
	var opts []core.Options
	for _, run := range []struct{ demand, trace bool }{{true, false}, {false, false}, {false, true}} {
		cfg := pipeline.DefaultConfig()
		cfg.FetchWidth = 16   // Appendix B case study: 16-wide I-cache fetch
		cfg.FetchBufSize = 64 // don't let the buffer cap the supply measure
		cfg.PerfectFrontend, cfg.TrackDemand = run.demand, run.demand
		cfg.InfiniteBackend, cfg.TrackSupply = !run.demand, !run.demand
		cfg.NoFetchBreakOnTaken = run.trace
		opts = append(opts, core.Options{Disable: true, WithBOP: true, CoreCfg: &cfg})
	}
	return opts
}

// frontendDists runs Appendix B measurement runs on p at budget, through
// the run memo and in parallel, and returns the one distribution each
// tracks (demand or supply).
func frontendDists(c *Context, p *Prepared, budget uint64, runs []core.Options) [][]float64 {
	dists := make([][]float64, len(runs))
	c.ParallelEach(len(runs), func(i int) {
		m := c.RunShared(p, runs[i], budget, nil, nil).MT
		if m.Demand != nil {
			dists[i] = m.Demand.Dist()
		} else {
			dists[i] = m.Supply.Dist()
		}
	})
	return dists
}

// MeasureSupplyDemand extracts the empirical demand and I-cache supply
// distributions of Appendix B at budget: Fig. 14 at a quarter of the
// evaluation budget, the tier package's calibrator at its own. Most
// supply runs deadlock (an infinite backend never resolves a mispredicted
// branch, ROADMAP item 4) and stop at pipeline.DeadlockGuard.
func MeasureSupplyDemand(c *Context, p *Prepared, budget uint64) (demand, supply []float64) {
	d := frontendDists(c, p, budget, appendixBRuns()[:2])
	return d[0], d[1]
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
	d := frontendDists(c, p, c.Budget/4, appendixBRuns())
	mIC := mustModel(d[0], d[1])
	mTC := mustModel(d[0], d[2])

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
	model := mustModel(MeasureSupplyDemand(c, p, c.Budget/4))
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
