package tier

import (
	"context"
	"hash/fnv"

	"r3dla/internal/core"
	"r3dla/internal/lab"
)

// mcCycles is the stochastic fetch-queue simulation length per
// configuration. Long enough for the recall estimate to settle, ~10^3×
// cheaper than a cycle-accurate cell.
const mcCycles = 4096

// MonteCarloRunner is the ladder's middle tier: instead of the chain's
// closed-form steady state it samples the empirical supply and demand
// distributions through a small stochastic fetch-queue simulation — the
// SpAtten-style estimator shape, where the lookahead's usefulness is
// measured as recall (instructions the sampled supply delivers against
// what decode demands) rather than derived analytically. Reboot stalls
// are sampled at the anchor's measured rate, so the cell's RebootCost
// axis has a dynamic (not just closed-form) effect.
//
// Every cell draws its randomness from a splitmix64 stream seeded by
// (runner seed, canonical run key) alone — never by scheduling order —
// so results are byte-identical across -jobs, across processes, and
// across journal resume.
type MonteCarloRunner struct {
	cal  *Calibrator
	seed uint64
}

// NewMonteCarloRunner builds the Monte-Carlo tier; seed fixes the
// sampling streams (the dse ladder passes the explore seed).
func NewMonteCarloRunner(c *Calibrator, seed uint64) *MonteCarloRunner {
	return &MonteCarloRunner{cal: c, seed: seed}
}

// Run satisfies the sweep engine's Runner contract.
func (r *MonteCarloRunner) Run(ctx context.Context, req lab.RunRequest) (*lab.RunResult, error) {
	cfg, err := req.Config.Config()
	if err != nil {
		return nil, err
	}
	cal, err := r.cal.Get(ctx, req.Workload)
	if err != nil {
		return nil, err
	}
	budget := req.Budget
	if budget == 0 {
		budget = r.cal.l.Budget()
	}

	opt := cfg.SystemOptions()
	ref := presetOptions(cfg.Preset())
	anchor := cal.Anchors[cfg.Preset()]

	// Two independent streams per cell — one for the cell's own queue
	// simulation, one for the anchor reference — both derived purely from
	// the cell's identity.
	h := fnv.New64a()
	h.Write([]byte(lab.RunKey(req.Workload, cfg, budget)))
	base := r.seed ^ h.Sum64()

	effCell := simulateQueue(cal, opt, anchor, newSplitmix(base))
	effRef := simulateQueue(cal, ref, anchor, newSplitmix(base+0x9e3779b97f4a7c15))

	ipc := anchor.IPC
	if effRef > 0 {
		ipc *= effCell / effRef
	}
	ipc *= structureFactor(opt, ref, cal.Spread(), anchor)
	return synthesize(req.Workload, cfg, budget, ipc, anchor), nil
}

// simulateQueue plays mcCycles of the fetch queue: each cycle the fetch
// side delivers a sampled supply (unless a sampled reboot has it
// stalled), decode consumes a sampled demand, and the queue saturates at
// the configuration's capacity. The return value is the frontend's
// recall: served demand over total demand.
func simulateQueue(cal *Calibration, opt core.Options, anchor Anchor, rng *splitmix) float64 {
	capacity := capacityOf(opt)
	supply := newSampler(cal.Supply)
	demand := newSampler(cal.Demand)
	rebootP := clamp(anchor.RebootsPerKCycle/1000, 0, 1)
	rebootStall := orDef(int(opt.RebootCost), core.DefaultRebootCost)

	queue, stall := 0, 0
	var served, demanded float64
	for cyc := 0; cyc < mcCycles; cyc++ {
		if stall > 0 {
			stall--
		} else {
			queue += supply.draw(rng)
			if queue > capacity {
				queue = capacity
			}
			if rebootP > 0 && rng.float64() < rebootP {
				stall = rebootStall
			}
		}
		d := demand.draw(rng)
		take := d
		if take > queue {
			take = queue
		}
		queue -= take
		served += float64(take)
		demanded += float64(d)
	}
	if demanded == 0 {
		return 1
	}
	return clamp(served/demanded, 0.05, 1)
}

// sampler inverts an empirical distribution's CDF.
type sampler struct {
	cdf []float64
}

func newSampler(dist []float64) *sampler {
	cdf := make([]float64, len(dist))
	var acc, total float64
	for _, p := range dist {
		if p > 0 {
			total += p
		}
	}
	if total == 0 {
		// Degenerate profile: point mass at 0.
		cdf = []float64{1}
		return &sampler{cdf: cdf}
	}
	for i, p := range dist {
		if p > 0 {
			acc += p / total
		}
		cdf[i] = acc
	}
	cdf[len(cdf)-1] = 1
	return &sampler{cdf: cdf}
}

func (s *sampler) draw(rng *splitmix) int {
	u := rng.float64()
	for i, c := range s.cdf {
		if u < c {
			return i
		}
	}
	return len(s.cdf) - 1
}

// splitmix is the splitmix64 generator: tiny, fast, and fully determined
// by its seed — exactly what per-cell order-independent sampling needs.
type splitmix struct {
	s uint64
}

func newSplitmix(seed uint64) *splitmix { return &splitmix{s: seed} }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}
