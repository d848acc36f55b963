package exp

import (
	"fmt"

	"r3dla/internal/core"
	"r3dla/internal/pipeline"
	"r3dla/internal/stats"
	"r3dla/internal/workloads"
)

// Fig11 regenerates Fig. 11: throughput of the wide core (FC), DLA and
// R3-DLA on two half-cores, and two-copy SMT (core.SMTOptions: two
// half-cores sharing one private cache stack, their combined commits per
// cycle), all normalized to a single half-core (HC). HC, FC and SMT run
// at half the budget that DLA and R3-DLA run at (DESIGN §4); the
// memoized runs' keys show each budget.
func Fig11(c *Context) *Report {
	half := pipeline.HalfConfig()
	wide := pipeline.WideConfig()

	t := &stats.Table{
		Title:  "Fig. 11: SMT-core throughput normalized to a half-core",
		Header: []string{"bench", "FC", "DLA", "R3-DLA", "SMT"},
	}
	all := workloads.All()
	type row struct{ fc, dla, r3, smt float64 }
	rows := make([]row, len(all))
	c.ParallelEach(len(all), func(i int) {
		p := c.Prep(all[i].Name)
		budget := c.Budget / 2

		hcIPC := c.RunShared(p, core.Options{Disable: true, WithBOP: true, CoreCfg: &half}, budget, nil, nil).IPC()
		fcIPC := c.RunShared(p, core.Options{Disable: true, WithBOP: true, CoreCfg: &wide}, budget, nil, nil).IPC()
		pair := c.RunShared(p, core.SMTOptions(), budget, nil, nil)
		smt := float64(pair.MT.Committed+pair.SMT.Committed) / float64(pair.MT.Cycles)

		dlaOpt := core.DLAOptions()
		dlaOpt.CoreCfg = &half
		dla := c.RunCached(p, dlaOpt)

		r3Opt := core.R3Options()
		r3Opt.CoreCfg = &half
		r3 := c.RunCached(p, r3Opt)

		rows[i] = row{fcIPC / hcIPC, dla.IPC() / hcIPC, r3.IPC() / hcIPC, smt / hcIPC}
	})
	var fcs, dlas, r3s, smts []float64
	for i, w := range all {
		r := rows[i]
		fcs = append(fcs, r.fc)
		dlas = append(dlas, r.dla)
		r3s = append(r3s, r.r3)
		smts = append(smts, r.smt)
		t.AddRow(w.Name, f2(r.fc), f2(r.dla), f2(r.r3), f2(r.smt))
	}
	t.AddRow("gmean", f2(stats.Geomean(fcs)), f2(stats.Geomean(dlas)),
		f2(stats.Geomean(r3s)), f2(stats.Geomean(smts)))
	return NewReport(t)
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
