package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"r3dla/internal/dse"
	"r3dla/internal/lab"
	"r3dla/internal/sweep"
	"r3dla/internal/tier"
)

// Ladder exploration shape: every rung evaluates at ladderBudget; the
// analytic rung promotes at most ladderSamples cells to Monte-Carlo, and
// a quarter of those (the default eta) run cycle-accurately.
const (
	ladderBudget       = 20_000
	ladderSamples      = 64
	ladderExplorations = 6
)

// The cell counts each exploration's analytic and cycle-accurate rungs
// must have. dla with a set of R3 toggles is the same configuration as
// r3 with that set, so the space's 100,000 cells are 50,000 distinct
// configurations; the finalists are ceil(64 / eta 4).
const (
	ladderAnalyticCells = 50_000
	ladderFinalists     = 16
)

// ladderSpace is every workload × {dla, r3} × the four R3 toggles × five
// BOQ, FQ and VQ sizes: 25·2·16·125 = 100,000 cells.
func ladderSpace(budget uint64) sweep.Spec {
	bools := []bool{false, true}
	return sweep.Spec{
		Workloads: []string{"all"},
		Budget:    budget,
		Axes: sweep.Axes{
			Preset:      []string{lab.DLA.Name(), lab.R3.Name()},
			T1:          bools,
			ValueReuse:  bools,
			FetchBuffer: bools,
			Recycle:     bools,
			BOQSize:     []int{64, 128, 256, 512, 1024},
			FQSize:      []int{16, 32, 64, 128, 256},
			VQSize:      []int{8, 16, 32, 64, 128},
		},
	}
}

// cycleRunner is the ladder's cycle-accurate tier: the Lab, called inside
// a semaphore of the Lab's width so a cell's time excludes the wait that
// every cell of a rung has on the Lab's workers.
type cycleRunner struct {
	l      *lab.Lab
	sem    chan struct{}
	tr     *tracer
	parent *atomic.Int64 // the exploration span calls belong to
	ck     *checker

	mu        sync.Mutex
	cellMS    map[string]float64 // by run key
	committed uint64
	calls     int
}

func (r *cycleRunner) Run(ctx context.Context, req lab.RunRequest) (*lab.RunResult, error) {
	cfg, err := req.Config.Config()
	if err != nil {
		return nil, err
	}
	r.sem <- struct{}{}
	id := r.tr.begin("lab.Lab.Run", int(r.parent.Load()))
	t0 := time.Now()
	res, err := r.l.Run(ctx, req)
	d := time.Since(t0)
	r.tr.finish(id)
	<-r.sem
	key := lab.RunKey(req.Workload, cfg, req.Budget)
	if err == nil {
		r.ck.record(checkCell(key, res, req.Budget))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls++
	r.cellMS[key] = ms(d)
	if err == nil {
		r.committed += res.Committed
	}
	return res, err
}

// tracedRunner records a span around every call of an estimator tier.
type tracedRunner struct {
	r      sweep.Runner
	name   string
	tr     *tracer
	parent *atomic.Int64
}

func (t *tracedRunner) Run(ctx context.Context, req lab.RunRequest) (*lab.RunResult, error) {
	id := t.tr.begin(t.name, int(t.parent.Load()))
	defer t.tr.finish(id)
	return t.r.Run(ctx, req)
}

// runLadder is the ladder workload: ladderExplorations fidelity-ladder
// halving explorations, each over the whole 10^5-cell space with its own
// sampling seed, run in seeded orders. Exploration k runs at budget
// ladderBudget+10k, so its cycle-accurate finalists are never answered
// from the run memo of an earlier one. Every seed explores the same
// cells: which finalists the Monte-Carlo rung picks moves the cell times
// more than the host does. Set-up is Prepare plus a calibration
// (tier.Calibrator.Get) of every workload; each repetition sets up a
// fresh Lab.
func runLadder(ctx context.Context, e *env, ck *checker, reps int, tr *tracer) (*report, error) {
	names := workloadNames()
	rep := &report{}
	var analyticCells, mcCells, finalists []float64
	var aErr, mErr, errCells float64
	for r := 0; r < reps; r++ {
		release()
		t0 := time.Now()
		l, err := lab.New(lab.WithBudget(ladderBudget), lab.WithJobs(e.jobs))
		if err != nil {
			return nil, err
		}
		if _, err := prepareAll(ctx, l, names, e.jobs, tr); err != nil {
			return nil, err
		}
		cal := tier.NewCalibrator(l, tier.CalibBudgetFor(ladderBudget), nil)
		errc := make([]error, len(names))
		forEach(len(names), e.jobs, func(i int) {
			id := tr.begin("tier.Calibrator.Get", noSpan)
			_, errc[i] = cal.Get(ctx, names[i])
			tr.finish(id)
		})
		if err := errors.Join(errc...); err != nil {
			return nil, err
		}
		rep.setupS = append(rep.setupS, time.Since(t0).Seconds())
		r3, bl := make([]float64, len(names)), make([]float64, len(names))
		for i, w := range names {
			c, err := cal.Get(ctx, w) // memoized by the set-up
			if err != nil {
				return nil, err
			}
			r3[i], bl[i] = c.Anchors[lab.R3.Name()].IPC, c.Anchors[lab.Baseline.Name()].IPC
		}
		rep.speedup = geomean(ratios(r3, bl))

		var parent atomic.Int64
		parent.Store(noSpan)
		cyc := &cycleRunner{l: l, sem: make(chan struct{}, e.jobs), tr: tr, parent: &parent, ck: ck,
			cellMS: map[string]float64{}}
		reports := make([]string, ladderExplorations)
		opMS := make([]float64, ladderExplorations)
		analyticCells, mcCells, finalists = nil, nil, nil
		aErr, mErr, errCells = 0, 0, 0
		runs0 := l.RunCount()
		ph := startPhase(tr != nil)
		// A seeded order per repetition, so no exploration always runs
		// in the same place.
		for _, k := range newRand(e.seed, uint64(100+r)).Perm(ladderExplorations) {
			seed := int64(k + 1)
			spec := dse.Spec{
				Space:    ladderSpace(ladderBudget + 10*uint64(k)),
				Strategy: dse.StrategyHalving,
				Fidelity: dse.FidelityLadder,
				Seed:     seed,
				Samples:  ladderSamples,
			}
			var analytic, mc sweep.Runner = tier.NewAnalyticRunner(cal), tier.NewMonteCarloRunner(cal, uint64(seed))
			if tr != nil {
				analytic = &tracedRunner{analytic, "tier.AnalyticRunner.Run", tr, &parent}
				mc = &tracedRunner{mc, "tier.MonteCarloRunner.Run", tr, &parent}
			}
			// Each exploration starts on a collected heap: the previous
			// one's 10^5 estimates are garbage it should not pay for.
			runtime.GC()
			id := tr.begin("dse.Explore", noSpan)
			parent.Store(int64(id))
			t0 := time.Now()
			res, err := dse.Explore(ctx, cyc, spec, dse.Options{Tiers: &dse.Tiers{Analytic: analytic, MC: mc}})
			opMS[k] = ms(time.Since(t0))
			tr.finish(id)
			if err == nil && len(res.Rounds) != 3 {
				err = fmt.Errorf("exploration %d climbed %d rungs, want 3", k, len(res.Rounds))
			}
			ck.record(err)
			if err != nil {
				continue
			}
			reports[k] = res.Report().String()
			analyticCells = append(analyticCells, float64(res.Rounds[0].Cells))
			mcCells = append(mcCells, float64(res.Rounds[1].Cells))
			finalists = append(finalists, float64(res.Rounds[2].Cells))
			for _, te := range res.TierErrors {
				switch te.Tier {
				case sweep.TierAnalytic:
					aErr += te.MAPE * float64(te.Cells)
					errCells += float64(te.Cells)
				case sweep.TierMC:
					mErr += te.MAPE * float64(te.Cells)
				}
			}
		}
		if wall := ph.end(rep); r == 0 || wall < rep.timed {
			rep.timed = wall
		}
		rep.sims = l.RunCount() - runs0
		rep.memoHits = cyc.calls - rep.sims
		ck.record(freshGuard("ladder: finalist cells simulated", rep.sims, cyc.calls))
		d := newDigest()
		for _, s := range reports {
			d.add([]byte(s))
		}
		ck.record(sameOutputs(rep, r, d.String()))
		ck.record(keepFastest(&rep.opMS, opMS))
		keys := make([]string, 0, len(cyc.cellMS))
		for k := range cyc.cellMS {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		times := make([]float64, len(keys))
		for i, k := range keys {
			times[i] = cyc.cellMS[k]
		}
		ck.record(keepFastest(&rep.cellMS, times))
		rep.committed = cyc.committed
	}

	if tr != nil {
		spans := tr.snapshot()
		rep.layer = map[string]metric{
			"tier.calibrate_ms":            {p50(spans, "tier.Calibrator.Get"), "ms"},
			"tier.analytic_us":             {1e3 * p50(spans, "tier.AnalyticRunner.Run"), "us"},
			"tier.mc_ms":                   {p50(spans, "tier.MonteCarloRunner.Run"), "ms"},
			"tier.analytic_cells_mismatch": {cellsMismatch(analyticCells, ladderAnalyticCells), "count"},
			"tier.mc_cells_mismatch":       {cellsMismatch(mcCells, ladderSamples), "count"},
			"core.finalist_cells_mismatch": {cellsMismatch(finalists, ladderFinalists), "count"},
			"tier.analytic_mape":           {aErr / errCells, "ratio"},
			"tier.mc_mape":                 {mErr / errCells, "ratio"},
			"dse.self_ms":                  {median(selfTimes(spans, "dse.Explore")), "ms"},
		}
	}
	return rep, nil
}

// cellsMismatch sums, over the explorations, how far each rung's cell
// count is from the count every exploration must have.
func cellsMismatch(counts []float64, want int) float64 {
	var off float64
	for _, c := range counts {
		off += mismatch(int(c), want)
	}
	return off
}
