package exp

import (
	"fmt"

	"r3dla/internal/core"
	"r3dla/internal/pipeline"
	"r3dla/internal/stats"
)

// Table3 regenerates Table III: L1 MPKI split between strided and
// non-strided accesses under BL, BL+stride, DLA, and DLA+T1. A miss is an
// MT load supplied from L2 or beyond; strided PCs are the ones the
// training profile marks (core.Results.MTStridedL1Misses).
func Table3(c *Context) *Report {
	cfgs := []struct {
		name string
		opt  core.Options
	}{
		{"BL", core.Options{Disable: true, WithBOP: true}},
		{"BL+stride", core.Options{Disable: true, WithBOP: true, WithStride: true}},
		{"DLA", core.DLAOptions()},
		{"DLA+T1", core.Options{WithBOP: true, T1: true}},
	}

	names := SuiteNames("all")
	type mpki struct{ strided, others float64 }
	// per[workload][config]
	per := make([][]mpki, len(names))
	for i := range per {
		per[i] = make([]mpki, len(cfgs))
	}
	c.ParallelEach(len(names)*len(cfgs), func(k int) {
		wi, ci := k/len(cfgs), k%len(cfgs)
		r := c.RunCached(c.Prep(names[wi]), cfgs[ci].opt)
		hits := r.MT.LoadLevelHits
		kinsts := float64(r.MT.Committed) / 1000
		others := hits[2] + hits[3] + hits[4] - r.MTStridedL1Misses
		per[wi][ci] = mpki{float64(r.MTStridedL1Misses) / kinsts, float64(others) / kinsts}
	})

	t := &stats.Table{
		Title:  "Table III: L1 MPKI, strided vs non-strided accesses",
		Header: []string{"config", "strided mean", "strided median", "others mean", "others median"},
	}
	for ci, cf := range cfgs {
		var strided, others []float64
		for wi := range names {
			strided = append(strided, per[wi][ci].strided)
			others = append(others, per[wi][ci].others)
		}
		t.AddRow(cf.name,
			fmt.Sprintf("%.1f", stats.Mean(strided)),
			fmt.Sprintf("%.1f", stats.Median(strided)),
			fmt.Sprintf("%.1f", stats.Mean(others)),
			fmt.Sprintf("%.1f", stats.Median(others)))
	}
	return NewReport(t)
}

// Fig12 regenerates Fig. 12: speedup and memory traffic of DLA+Stride vs
// DLA+T1, normalized to plain DLA.
func Fig12(c *Context) *Report {
	rep := NewReport()
	for _, metric := range []string{"speedup", "traffic"} {
		t := &stats.Table{
			Title:  fmt.Sprintf("Fig. 12 (%s normalized to DLA)", metric),
			Header: append([]string{"config"}, suiteOrder...),
		}
		for _, cf := range []struct {
			name string
			opt  core.Options
		}{
			{"DLA+Stride", core.Options{WithBOP: true, WithStride: true}},
			{"DLA+T1", core.Options{WithBOP: true, T1: true}},
		} {
			vals := perSuite(c, func(p *Prepared) float64 {
				dla := c.RunCached(p, core.DLAOptions())
				r := c.RunCached(p, cf.opt)
				if metric == "speedup" {
					return r.IPC() / dla.IPC()
				}
				return float64(r.DRAM.Traffic()) / float64(dla.DRAM.Traffic())
			})
			summarizeSuites(t, cf.name, vals)
		}
		rep.Add(t)
	}
	return rep
}

// Fig13a regenerates Fig. 13-a: the fetch buffer's gain over the baseline
// vs over DLA.
func Fig13a(c *Context) *Report {
	t := &stats.Table{
		Title:  "Fig. 13-a: 32-entry fetch buffer speedup",
		Header: append([]string{"config"}, suiteOrder...),
	}
	// Over baseline: plain core, fetch buffer 8 vs 32 (own predictor).
	// Not Options.FetchBuffer: that is the BOQ-driven buffer, which needs
	// a look-ahead thread.
	cfg := pipeline.DefaultConfig()
	cfg.FetchBufSize = 32
	vals := perSuite(c, func(p *Prepared) float64 {
		base := c.RunCached(p, core.Options{Disable: true, WithBOP: true})
		fb := c.RunCached(p, core.Options{Disable: true, WithBOP: true, CoreCfg: &cfg})
		return fb.IPC() / base.IPC()
	})
	summarizeSuites(t, "FB over BL", vals)
	// Over DLA: BOQ-driven.
	vals = perSuite(c, func(p *Prepared) float64 {
		dla := c.RunCached(p, core.DLAOptions())
		fb := c.RunCached(p, core.Options{WithBOP: true, FetchBuffer: true})
		return fb.IPC() / dla.IPC()
	})
	summarizeSuites(t, "FB over DLA", vals)
	return NewReport(t)
}

// trainOptions is Fig. 13-b's training run: online recycling with the
// controller's own trial window, which RunDLAAt would otherwise scale
// with the budget.
var trainOptions = core.Options{WithBOP: true, Recycle: true, TrialInsts: core.DefaultTrialInsts}

// Fig13b regenerates Fig. 13-b: dynamic (online) vs static (training-
// input) recycle tuning, normalized to plain DLA.
func Fig13b(c *Context) *Report {
	t := &stats.Table{
		Title:  "Fig. 13-b: skeleton recycling, dynamic vs static tuning (speedup over DLA)",
		Header: append([]string{"mode"}, suiteOrder...),
	}
	vals := perSuite(c, func(p *Prepared) float64 {
		dla := c.RunCached(p, core.DLAOptions())
		dyn := c.RunCached(p, core.Options{WithBOP: true, Recycle: true})
		return dyn.IPC() / dla.IPC()
	})
	summarizeSuites(t, "Dynamic", vals)
	vals = perSuite(c, func(p *Prepared) float64 {
		dla := c.RunCached(p, core.DLAOptions())
		// Learn the LCT on the training input, then preload it.
		train := c.RunShared(p.Train(), trainOptions, c.Budget/2, nil, nil)
		st := c.RunCached(p, core.Options{WithBOP: true, StaticLCT: train.LCT})
		return st.IPC() / dla.IPC()
	})
	summarizeSuites(t, "Static", vals)
	return NewReport(t)
}

// Fig13c regenerates Fig. 13-c: each optimization applied first (over
// baseline DLA) vs last (completing R3-DLA) — the synergy result.
func Fig13c(c *Context) *Report {
	techs := []struct {
		key      string
		alone    core.Options // DLA + only this technique
		disabled core.Options // R3-DLA minus this technique
	}{
		{"AS (T1 offload)",
			core.Options{WithBOP: true, T1: true},
			func() core.Options { o := core.R3Options(); o.T1 = false; return o }()},
		{"VR (value reuse)",
			core.Options{WithBOP: true, ValueReuse: true},
			func() core.Options { o := core.R3Options(); o.ValueReuse = false; return o }()},
		{"FB (fetch buffer)",
			core.Options{WithBOP: true, FetchBuffer: true},
			func() core.Options { o := core.R3Options(); o.FetchBuffer = false; return o }()},
		{"RC (recycle)",
			core.Options{WithBOP: true, Recycle: true},
			func() core.Options { o := core.R3Options(); o.Recycle = false; return o }()},
	}
	t := &stats.Table{
		Title:  "Fig. 13-c: technique applied first vs last (all-suite geomean)",
		Header: []string{"technique", "first (DLA+X / DLA)", "last (R3 / R3-X)"},
	}
	for _, tech := range techs {
		type pair struct{ first, last float64 }
		names := SuiteNames("all")
		per := make([]pair, len(names))
		c.ParallelEach(len(names), func(i int) {
			p := c.Prep(names[i])
			dla := c.RunCached(p, core.DLAOptions())
			r3 := c.RunCached(p, core.R3Options())
			alone := c.RunCached(p, tech.alone)
			minus := c.RunCached(p, tech.disabled)
			per[i] = pair{alone.IPC() / dla.IPC(), r3.IPC() / minus.IPC()}
		})
		var first, last []float64
		for _, pr := range per {
			first = append(first, pr.first)
			last = append(last, pr.last)
		}
		t.AddRow(tech.key,
			fmt.Sprintf("%.3f", stats.Geomean(first)),
			fmt.Sprintf("%.3f", stats.Geomean(last)))
	}
	return NewReport(t)
}
