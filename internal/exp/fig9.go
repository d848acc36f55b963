package exp

import (
	"fmt"

	"r3dla/internal/core"
	"r3dla/internal/energy"
	"r3dla/internal/stats"
)

// suiteOrder is the presentation order of Fig. 9/10/12/13.
var suiteOrder = []string{"spec", "crono", "star", "npb", "all"}

// perSuite runs f over every workload (concurrently, on the worker pool)
// and aggregates per suite (geomean + range). Aggregation happens in
// workload order after all runs finish, so the rows are deterministic
// regardless of scheduling.
func perSuite(c *Context, f func(p *Prepared) float64) map[string][]float64 {
	names := SuiteNames("all")
	res := make([]float64, len(names))
	preps := make([]*Prepared, len(names))
	c.ParallelEach(len(names), func(i int) {
		p := c.Prep(names[i])
		preps[i] = p
		res[i] = f(p)
	})
	vals := make(map[string][]float64)
	for i, name := range names {
		v := res[i]
		vals[preps[i].W.Suite] = append(vals[preps[i].W.Suite], v)
		vals["all"] = append(vals["all"], v)
		c.Logf("  %-9s %-6s %.3f\n", name, preps[i].W.Suite, v)
	}
	return vals
}

// eachWorkload maps f over every workload concurrently, returning results
// in workload order.
func eachWorkload(c *Context, f func(p *Prepared) float64) []float64 {
	names := SuiteNames("all")
	res := make([]float64, len(names))
	c.ParallelEach(len(names), func(i int) {
		res[i] = f(c.Prep(names[i]))
	})
	return res
}

// baselineIPC computes the normalization baseline (BL+BOP IPC) for every
// workload, keyed by name.
func baselineIPC(c *Context) map[string]float64 {
	names := SuiteNames("all")
	ipcs := eachWorkload(c, func(p *Prepared) float64 {
		return c.RunCached(p, core.Options{Disable: true, WithBOP: true}).IPC()
	})
	base := make(map[string]float64, len(names))
	for i, name := range names {
		base[name] = ipcs[i]
	}
	return base
}

func summarizeSuites(t *stats.Table, label string, vals map[string][]float64) {
	cells := []string{label}
	for _, s := range suiteOrder {
		lo, hi := stats.MinMax(vals[s])
		cells = append(cells, fmt.Sprintf("%.2f [%.2f-%.2f]", stats.Geomean(vals[s]), lo, hi))
	}
	t.AddRow(cells...)
}

// Fig9a regenerates Fig. 9-a: speedups of BL / DLA / R3-DLA with and
// without the BOP prefetcher, normalized to BL+BOP, per suite.
func Fig9a(c *Context) *Report {
	type cfg struct {
		name string
		opt  core.Options
	}
	cfgs := []cfg{
		{"BL (noPF)", core.Options{Disable: true}},
		{"BL", core.Options{Disable: true, WithBOP: true}},
		{"DLA (noPF)", core.Options{}},
		{"DLA", core.DLAOptions()},
		{"R3-DLA (noPF)", func() core.Options { o := core.R3Options(); o.WithBOP = false; return o }()},
		{"R3-DLA", core.R3Options()},
	}

	base := baselineIPC(c)

	t := &stats.Table{
		Title:  "Fig. 9-a: speedup over BL+BOP (geomean [min-max])",
		Header: append([]string{"config"}, suiteOrder...),
	}
	for _, cf := range cfgs {
		vals := perSuite(c, func(p *Prepared) float64 {
			return c.RunCached(p, cf.opt).IPC() / base[p.W.Name]
		})
		summarizeSuites(t, cf.name, vals)
	}
	return NewReport(t)
}

// Fig9b regenerates Fig. 9-b: the all-suite comparison against B-Fetch,
// SlipStream, CRE, DLA and R3-DLA.
func Fig9b(c *Context) *Report {
	base := baselineIPC(c)
	designs := []struct {
		name string
		opt  core.Options
	}{
		{"B-Fetch", core.BFetchOptions()},
		{"S-Stream", core.SlipStreamOptions()},
		{"CRE", core.CREOptions()},
		{"DLA", core.DLAOptions()},
		{"R3-DLA", core.R3Options()},
	}
	t := &stats.Table{
		Title:  "Fig. 9-b: all-suite speedup over BL+BOP",
		Header: []string{"design", "speedup (geomean)", "range"},
	}
	names := SuiteNames("all")
	for _, d := range designs {
		ipcs := eachWorkload(c, func(p *Prepared) float64 { return c.RunCached(p, d.opt).IPC() })
		var vals []float64
		for i, name := range names {
			vals = append(vals, ipcs[i]/base[name])
		}
		lo, hi := stats.MinMax(vals)
		t.AddRow(d.name, fmt.Sprintf("%.2f", stats.Geomean(vals)), fmt.Sprintf("[%.2f-%.2f]", lo, hi))
	}
	return NewReport(t)
}

// Table2 regenerates Table II: D/X/C activity, dynamic energy/power and
// static power of LT and MT under DLA and R3-DLA, normalized to baseline.
func Table2(c *Context) *Report {
	p := energy.DefaultParams()

	// One workload contributes 7 normalized metrics to each of the four
	// (config, thread) rows; compute all contributions concurrently, then
	// aggregate in workload order.
	type contrib struct {
		d, x, cc, de, dp, sp, pw float64
	}
	keys := []string{"DLA LT", "DLA MT", "R3 LT", "R3 MT"}
	names := SuiteNames("all")
	per := make([]map[string]contrib, len(names))

	c.ParallelEach(len(names), func(wi int) {
		pr := c.Prep(names[wi])
		bl := c.RunCached(pr, core.Options{Disable: true, WithBOP: true})
		bAct := energy.ActivityOf(bl.MT)
		bEn := coreEnergy(bl.MT, &bl.MTMem, bl.MT.Cycles, p)
		out := make(map[string]contrib, 4)
		mk := func(act energy.Activity, e energy.Breakdown) contrib {
			ar := act.Ratio(bAct)
			return contrib{
				d: ar.D, x: ar.X, cc: ar.C,
				de: e.DynamicJ / bEn.DynamicJ,
				dp: e.DynPowerW() / bEn.DynPowerW(),
				sp: e.StatPowerW() / bEn.StatPowerW(),
				pw: e.PowerW() / bEn.PowerW(),
			}
		}
		for _, cfgName := range []string{"DLA", "R3"} {
			opt := core.DLAOptions()
			if cfgName == "R3" {
				opt = core.R3Options()
			}
			r := c.RunCached(pr, opt)
			mtEn := coreEnergy(r.MT, &r.MTMem, r.MT.Cycles, p)
			ltEn := coreEnergy(r.LT, &r.LTMem, r.MT.Cycles, p)
			out[cfgName+" MT"] = mk(energy.ActivityOf(r.MT), mtEn)
			out[cfgName+" LT"] = mk(energy.ActivityOf(r.LT), ltEn)
		}
		per[wi] = out
	})

	agg := make(map[string]*[7][]float64, len(keys))
	for _, k := range keys {
		agg[k] = &[7][]float64{}
	}
	for _, out := range per {
		for _, k := range keys {
			cb := out[k]
			a := agg[k]
			for j, v := range []float64{cb.d, cb.x, cb.cc, cb.de, cb.dp, cb.sp, cb.pw} {
				a[j] = append(a[j], v)
			}
		}
	}

	t := &stats.Table{
		Title:  "Table II: activities, energy and power normalized to baseline (means)",
		Header: []string{"", "D", "X", "C", "Dyn.Energy", "Dyn.Power", "Static Power", "Power"},
	}
	for _, key := range keys {
		a := agg[key]
		row := []string{key}
		for j := 0; j < 7; j++ {
			row = append(row, pct(stats.Mean(a[j])))
		}
		t.AddRow(row...)
	}
	return NewReport(t)
}

func pct(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }

// Fig10 regenerates Fig. 10: CPU and DRAM energy of DLA and R3-DLA
// normalized to baseline, per suite.
func Fig10(c *Context) *Report {
	p := energy.DefaultParams()
	rep := NewReport()
	for _, part := range []string{"cpu", "dram"} {
		t := &stats.Table{
			Title:  fmt.Sprintf("Fig. 10 (%s energy normalized to baseline)", part),
			Header: append([]string{"config"}, suiteOrder...),
		}
		for _, cfgName := range []string{"DLA", "R3-DLA"} {
			vals := perSuite(c, func(pr *Prepared) float64 {
				bl := c.RunCached(pr, core.Options{Disable: true, WithBOP: true})
				opt := core.DLAOptions()
				if cfgName == "R3-DLA" {
					opt = core.R3Options()
				}
				r := c.RunCached(pr, opt)
				rc, rd := RunEnergy(r, p)
				bc, bd := RunEnergy(bl, p)
				if part == "cpu" {
					return rc / bc
				}
				return rd / bd
			})
			summarizeSuites(t, cfgName, vals)
		}
		rep.Add(t)
	}
	return rep
}
