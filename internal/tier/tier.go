// Package tier implements the fidelity ladder's cheap evaluation tiers:
// runners that satisfy the sweep engine's Runner contract (the same
// RunRequest → RunResult shape as a Lab) but estimate results instead of
// simulating them cycle by cycle.
//
// Two tiers are provided. AnalyticRunner prices a configuration through
// the Appendix B Markov fetch-buffer model, parameterized by per-workload
// demand/supply profiles captured once from a short cycle-accurate
// calibration run. MonteCarloRunner sits between the analytic tier and
// the cycle-accurate core: it replays the same empirical distributions
// through a seeded stochastic fetch-queue simulation (SNIPPETS §3 SpAtten
// style — sample what the lookahead supplies against what decode demands
// and report the recall), so it captures queue dynamics the closed-form
// chain averages away while remaining thousands of times cheaper than the
// core. Both tiers are deterministic functions of (workload, config,
// budget) plus a fixed seed, so their results are byte-identical across
// -jobs, across processes, and across journal resume.
//
// Calibration is captured by a Calibrator and optionally persisted as a
// resultstore entry, so a later process over the same directory prices
// its first ladder rung from a file read.
package tier

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"

	"r3dla/internal/exp"
	"r3dla/internal/lab"
	"r3dla/internal/memo"
	"r3dla/internal/resultstore"
)

// DefaultCalibBudget is the calibration-run length used when the caller
// does not specify one: long enough for the anchor IPCs and the
// supply/demand histograms to stabilize, short next to any real sweep
// budget.
const DefaultCalibBudget = 20_000

// minCalibBudget floors CalibBudgetFor: below this the anchor rates are
// too noisy to scale.
const minCalibBudget = 1000

// CalibBudgetFor derives a calibration budget from a sweep's per-cell
// budget: a quarter of it, floored at 1000 and never above the cell
// budget itself (the calibration must stay the cheap part). Budget 0
// (caller uses the lab default) selects DefaultCalibBudget.
func CalibBudgetFor(budget uint64) uint64 {
	if budget == 0 {
		return DefaultCalibBudget
	}
	cb := budget / 4
	if cb < minCalibBudget {
		cb = minCalibBudget
	}
	if cb > budget {
		cb = budget
	}
	return cb
}

// Anchor is the cycle-accurate ground truth for one preset at the
// calibration budget: the absolute quantities the estimators scale.
type Anchor struct {
	IPC              float64 // committed MT IPC
	EPI              float64 // joules per committed instruction
	MPKI             float64 // L1D misses per kilo-instruction
	RebootsPerKCycle float64 // LT resyncs per 1000 cycles
	BOQWrongPerKInst float64 // wrong BOQ outcomes per 1000 instructions
	DRAMPerKInst     float64 // DRAM bytes per 1000 instructions
}

// Calibration is everything the estimator tiers know about one workload:
// the Appendix B demand/supply distributions and the per-preset anchors.
// It is a plain value, gob-serializable for its store entry.
type Calibration struct {
	Workload string
	Budget   uint64
	Demand   []float64 // P(decode demands j instructions per cycle)
	Supply   []float64 // P(fetch supplies s instructions per cycle)
	Anchors  map[string]Anchor
}

// Spread reports how much the full R3 machine gains over classic DLA on
// this workload — the per-feature scale the structure factor spreads
// across the individual feature toggles.
func (c *Calibration) Spread() float64 {
	dla, r3 := c.Anchors[lab.DLA.Name()], c.Anchors[lab.R3.Name()]
	if dla.IPC <= 0 || r3.IPC <= 0 {
		return 1
	}
	return r3.IPC / dla.IPC
}

// Calibrator captures (and memoizes) per-workload calibrations against a
// cycle-accurate Lab. Safe for concurrent use: concurrent Gets for the
// same workload wait on one capture, each for no longer than its own
// context allows.
type Calibrator struct {
	l      *lab.Lab
	budget uint64
	cache  *resultstore.Store // nil: in-memory only
	cals   memo.Memo[*Calibration, struct{}]
}

// NewCalibrator builds a calibrator over l. calibBudget 0 selects
// DefaultCalibBudget; cache may be nil to skip persistence.
func NewCalibrator(l *lab.Lab, calibBudget uint64, cache *resultstore.Store) *Calibrator {
	if calibBudget == 0 {
		calibBudget = DefaultCalibBudget
	}
	return &Calibrator{l: l, budget: calibBudget, cache: cache}
}

// Budget reports the calibration-run budget.
func (c *Calibrator) Budget() uint64 { return c.budget }

// Lab returns the underlying cycle-accurate lab (the tiers use its
// default budget for requests that don't carry one).
func (c *Calibrator) Lab() *lab.Lab { return c.l }

// Get returns the calibration for workload, capturing it on first use.
// Failures (unknown workload, cancellation) are not cached; a later Get
// retries.
func (c *Calibrator) Get(ctx context.Context, workload string) (*Calibration, error) {
	return c.cals.Do(ctx, workload, func(ctx context.Context) (*Calibration, error) {
		return c.capture(ctx, workload)
	})
}

// capture runs the calibration: the Appendix B frontend profile plus one
// cycle-accurate anchor run per preset, all at the (short) calibration
// budget. With a warm store entry the lab is never touched.
func (c *Calibrator) capture(ctx context.Context, workload string) (*Calibration, error) {
	p, err := c.l.Prepare(ctx, workload)
	if err != nil {
		return nil, err
	}
	// The key carries the evaluation program's fingerprint, so an entry
	// captured against another build of the workload misses.
	var key string
	if c.cache != nil {
		key = fmt.Sprintf("tiercal-%s@%d#%016x", workload, c.budget, exp.ProgramFingerprint(p.Prog))
		if raw, ok := c.cache.Get(key); ok {
			var cal Calibration
			if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&cal); err == nil &&
				cal.Workload == workload && cal.Budget == c.budget && len(cal.Anchors) > 0 {
				return &cal, nil
			}
			// Undecodable or mismatched entry: fall through and recapture.
		}
	}

	demand, supply, err := c.l.FrontendProfile(ctx, workload, c.budget)
	if err != nil {
		return nil, err
	}
	cal := &Calibration{
		Workload: workload,
		Budget:   c.budget,
		Demand:   demand,
		Supply:   supply,
		Anchors:  make(map[string]Anchor, 3),
	}
	for _, preset := range lab.Presets() {
		r, err := c.l.Run(ctx, lab.RunRequest{
			Workload: workload,
			Config:   lab.ConfigSpec{Preset: preset.Name()},
			Budget:   c.budget,
		})
		if err != nil {
			return nil, err
		}
		cal.Anchors[preset.Name()] = anchorOf(r)
	}

	if c.cache != nil {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(cal); err == nil {
			// A failed store only costs the next process a recapture.
			_ = c.cache.Put(key, buf.Bytes())
		}
	}
	return cal, nil
}

// anchorOf reduces a cycle-accurate run to the rates the estimators
// scale.
func anchorOf(r *lab.RunResult) Anchor {
	a := Anchor{IPC: r.IPC, MPKI: r.L1DMPKI}
	if r.Committed > 0 {
		inst := float64(r.Committed)
		a.EPI = r.EnergyJ / inst
		a.BOQWrongPerKInst = 1000 * float64(r.BOQWrong) / inst
		a.DRAMPerKInst = 1000 * float64(r.DRAMTraffic) / inst
	}
	if r.Cycles > 0 {
		a.RebootsPerKCycle = 1000 * float64(r.Reboots) / float64(r.Cycles)
	}
	return a
}
