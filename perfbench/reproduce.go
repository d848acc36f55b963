package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"r3dla/internal/lab"
	"r3dla/internal/workloads"
)

// reproduceBudget is the reproduce grid's per-cell budget: one fixed
// budget, with which one pass over the 175 cells keeps two CPUs busy
// for about four seconds.
const reproduceBudget = 60_000

// gridConfig is one column of the reproduce grid.
type gridConfig struct {
	name   string
	preset string // the preset the column derives from (per-layer buckets)
	cfg    lab.Config
}

// gridConfigs are the columns of Fig. 9-a (BL, DLA, R3-DLA) and of
// Fig. 13-c (R3-DLA with one of its four mechanisms turned off).
func gridConfigs() []gridConfig {
	without := func(name string, o lab.Option) gridConfig {
		return gridConfig{name, lab.R3.Name(), lab.MustConfig(lab.R3, o)}
	}
	return []gridConfig{
		{"BL", lab.Baseline.Name(), lab.MustConfig(lab.Baseline)},
		{"DLA", lab.DLA.Name(), lab.MustConfig(lab.DLA)},
		{"R3", lab.R3.Name(), lab.MustConfig(lab.R3)},
		without("R3-noT1", lab.WithT1(false)),
		without("R3-noVR", lab.WithValueReuse(false)),
		without("R3-noFB", lab.WithFetchBuffer(false)),
		without("R3-noRC", lab.WithRecycle(false)),
	}
}

// workloadNames lists the evaluation suite in its fixed order.
func workloadNames() []string {
	var out []string
	for _, w := range workloads.All() {
		out = append(out, w.Name)
	}
	return out
}

// newRand is the benchmark's seeded generator; stream separates the
// independent draws one seed feeds.
func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// prepareAll cold-prepares every named workload on l with jobs callers.
func prepareAll(ctx context.Context, l *lab.Lab, names []string, jobs int, tr *tracer) ([]*lab.Prepared, error) {
	preps := make([]*lab.Prepared, len(names))
	errc := make([]error, len(names))
	forEach(len(names), jobs, func(i int) {
		id := tr.begin("lab.Lab.Prepare", noSpan)
		preps[i], errc[i] = l.Prepare(ctx, names[i])
		tr.finish(id)
	})
	return preps, errors.Join(errc...)
}

// forEach calls f(0..n-1) from workers goroutines and waits for them.
func forEach(n, workers int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runReproduce is the reproduce workload: the paper's evaluation grid,
// 25 workloads × 7 configurations, cycle-accurate at one budget. Set-up
// is a cold Prepare of every workload with no prep cache, which is what
// a fresh `r3dla -exp` pays. Each repetition then runs the grid twice,
// each time on a fresh Lab with nproc workers, so every cell simulates:
//
//   - queued: every cell submitted at once in grid order, workload by
//     workload, as `r3dla -exp` submits them, so each waits on the
//     Lab's workers. A cell's latency counts from the submission
//     (op_p50_ms), and the pass's wall time is what sim_kips divides
//     by. The order is the same for every seed: which cells come first
//     sets the median latency, so a seeded order would make the seed,
//     not the code, move op_p50_ms.
//   - closed loop: nproc callers, as many as the Lab has workers,
//     so no cell waits and each time is the cell's own (cell_p50_ms).
//     Each repetition uses its own seeded order, so a cell's fastest
//     time does not hinge on which cell ran beside it.
//
// Both passes must return the same bytes for every cell.
func runReproduce(ctx context.Context, e *env, ck *checker, reps int, tr *tracer) (*report, error) {
	names, cols := workloadNames(), gridConfigs()
	n := len(names) * len(cols)
	cell := func(i int) (string, gridConfig) { return names[i/len(cols)], cols[i%len(cols)] }
	rep := &report{}
	var preps []*lab.Prepared
	stopProfile := func() error { return nil }
	for r := 0; r < reps; r++ {
		release()
		t0 := time.Now()
		l, err := lab.New(lab.WithBudget(reproduceBudget), lab.WithJobs(e.jobs))
		if err != nil {
			return nil, err
		}
		if preps, err = prepareAll(ctx, l, names, e.jobs, tr); err != nil {
			return nil, err
		}
		rep.setupS = append(rep.setupS, time.Since(t0).Seconds())
		cellLab, err := lab.New(lab.WithBudget(reproduceBudget), lab.WithJobs(e.jobs))
		if err != nil {
			return nil, err
		}

		results, errc := make([]*lab.RunResult, n), make([]error, n)
		again, againErr := make([]*lab.RunResult, n), make([]error, n)
		opMS, cellMS := make([]float64, n), make([]float64, n)
		if stopProfile, err = startProfile(e, "reproduce", tr != nil); err != nil {
			return nil, err
		}
		runs0 := l.RunCount()
		ph := startPhase(tr != nil)

		var wg sync.WaitGroup
		for i := range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w, col := cell(i)
				id := tr.begin("lab.Lab.RunConfig", noSpan)
				results[i], errc[i] = l.RunConfig(ctx, w, col.cfg, reproduceBudget)
				tr.finish(id)
				opMS[i] = ms(time.Since(ph.start))
			}()
			// Let the new caller reach the Lab's queue before the next
			// one is submitted. Without this the scheduler ran the
			// callers in another order on every run, and the median
			// latency moved from 1.1 to 2.5 s on the same code.
			runtime.Gosched()
		}
		wg.Wait()
		wall := time.Since(ph.start)

		order := newRand(e.seed, uint64(1+r)).Perm(n)
		forEach(n, e.jobs, func(k int) {
			i := order[k]
			_, col := cell(i)
			id := tr.begin("lab.Lab.RunPrepared", noSpan)
			t0 := time.Now()
			again[i], againErr[i] = cellLab.RunPrepared(ctx, preps[i/len(cols)], col.cfg, reproduceBudget)
			cellMS[i] = ms(time.Since(t0))
			tr.finish(id)
		})
		ph.end(rep)

		queuedSims, cellSims := l.RunCount()-runs0, cellLab.RunCount()
		rep.sims = queuedSims + cellSims
		rep.memoHits = 2*n - rep.sims
		ck.record(freshGuard("reproduce: queued cells simulated", queuedSims, n))
		ck.record(freshGuard("reproduce: closed-loop cells simulated", cellSims, n))
		ck.record(keepFastest(&rep.opMS, opMS))
		ck.record(keepFastest(&rep.cellMS, cellMS))
		if r == 0 || wall < rep.timed {
			rep.timed = wall
		}

		d := newDigest()
		r3, bl := make([]float64, len(names)), make([]float64, len(names))
		rep.committed = 0
		for i, res := range results {
			w, col := cell(i)
			err := errors.Join(errc[i], againErr[i])
			if err == nil {
				body := canonicalJSON(res)
				err = checkCell(w+"/"+col.name, res, reproduceBudget)
				if err == nil && !bytes.Equal(canonicalJSON(again[i]), body) {
					err = fmt.Errorf("cell %s/%s: the closed-loop pass returned other bytes than the queued one", w, col.name)
				}
				rep.committed += res.Committed
				d.add(body)
				switch col.name {
				case "R3":
					r3[i/len(cols)] = res.IPC
				case "BL":
					bl[i/len(cols)] = res.IPC
				}
			}
			ck.record(err)
		}
		ck.record(sameOutputs(rep, r, d.String()))
		rep.speedup = geomean(ratios(r3, bl))
	}

	if tr != nil {
		rep.layer = map[string]metric{}
		attribute(e, preps, cols, tr, rep.layer)
		spans := tr.snapshot()
		rep.layer["exp.prep_ms"] = metric{p50(spans, "lab.Lab.Prepare"), "ms"}
	}
	if err := stopProfile(); err != nil {
		return nil, err
	}
	return rep, nil
}

// ratios returns a[i]/b[i] for every i where both were measured.
func ratios(a, b []float64) []float64 {
	out := make([]float64, 0, len(a))
	for i := range a {
		if a[i] > 0 && b[i] > 0 {
			out = append(out, a[i]/b[i])
		}
	}
	return out
}

// startProfile starts a CPU profile of the named workload when on, and
// returns the function that stops and closes it.
func startProfile(e *env, name string, on bool) (func() error, error) {
	if !on {
		return func() error { return nil }, nil
	}
	path := filepath.Join(e.out, fmt.Sprintf("cpu-%s-seed%d.pprof", name, e.seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		logf("wrote %s", path)
		return f.Close()
	}, nil
}
