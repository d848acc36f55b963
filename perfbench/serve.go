package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"r3dla/internal/fleet"
	"r3dla/internal/lab"
	"r3dla/internal/resultstore"
)

// The serve schedule: an open loop of interactive requests for a hot
// set warmed in set-up (store hits) beside a batch stream of cells no
// one asked for before (simulations that write the memo and the store).
// Every cell is at r3dlad's default budget. No recorded r3dlad traffic
// exists to take the two rates from, so they are an assumption: each
// class's one connection stays below saturation (a batch cell takes
// about half the batch gap on one CPU), so the latencies measure request
// handling rather than a growing backlog. The traced run reports the process's
// CPU utilisation at these rates as lab.cpu_util.
const (
	serveBudget = 150_000
	hitRate     = 150 // interactive requests per second
	missRate    = 3   // fresh batch cells per second
	probeCount  = 64  // direct store Get/Put calls in the traced run
)

// r3dlad's defaults for the settings the benchmark does not vary.
const (
	serveMaxBudget = 10_000_000
	serveInflight  = 64
	serveStoreMax  = 4096
)

// server is one r3dlad-shaped lab.Server on loopback with its own Lab
// and result store.
type server struct {
	lab   *lab.Lab
	store *resultstore.Store
	dir   string
	addr  string
	hs    *http.Server
	done  chan error
}

// startServer builds a fresh Lab, store and server and starts serving.
// The store lives under e.out, inside the checkout.
func startServer(e *env, n int) (*server, error) {
	dir := filepath.Join(e.out, fmt.Sprintf("serve-store-%d-%d", os.Getpid(), n))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	l, err := lab.New(lab.WithBudget(serveBudget), lab.WithJobs(e.jobs))
	if err != nil {
		return nil, err
	}
	st, err := resultstore.Open(dir, lab.ResultsFingerprint, serveStoreMax)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{lab: l, store: st, dir: dir, addr: ln.Addr().String(), done: make(chan error, 1)}
	s.hs = &http.Server{Handler: lab.NewServer(l,
		lab.WithMaxBudget(serveMaxBudget), lab.WithMaxInflight(serveInflight), lab.WithResultStore(st))}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close shuts the server down, waits for it to stop serving and removes
// its store.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, os.RemoveAll(s.dir))
}

// hotSet is every workload under the baseline and r3 presets.
func hotSet() []lab.RunRequest {
	var out []lab.RunRequest
	for _, w := range workloadNames() {
		for _, p := range []string{lab.Baseline.Name(), lab.R3.Name()} {
			out = append(out, lab.RunRequest{Workload: w, Config: lab.ConfigSpec{Preset: p}, Budget: serveBudget})
		}
	}
	return out
}

// request is one entry of the open-loop schedule.
type request struct {
	due time.Duration // offset from the start of the schedule
	req lab.RunRequest
}

// serveSchedule builds the seeded schedule for seconds of traffic. Hits
// pick keys of hot uniformly and arrive evenly spaced with a seeded
// jitter of up to one gap. Misses cycle through the workloads, and
// through dla and r3 on each pass, with toggles and queue sizes drawn
// from the ladder space's values by a generator of fixed seed, skipping
// any key already used. Misses arrive evenly spaced, in the same order
// for every seed: a batch cell takes about half a gap, so a slow one
// delays the next on the one batch connection, and a seeded batch
// stream would let the seed, through which cells queue, move the median
// miss.
func serveSchedule(seed int64, seconds int, hot []lab.RunRequest) (hits, misses []request, err error) {
	rng := newRand(seed, 2)
	gap := time.Second / hitRate
	for i := 0; i < hitRate*seconds; i++ {
		due := time.Duration(i)*gap + time.Duration(rng.Int64N(int64(gap)))
		hits = append(hits, request{due, hot[rng.IntN(len(hot))]})
	}
	seen := map[string]bool{}
	for _, h := range hot {
		cfg, err := h.Config.Config()
		if err != nil {
			return nil, nil, err
		}
		seen[lab.RunKey(h.Workload, cfg, serveBudget)] = true
	}
	cfgRng := newRand(0, 3)
	flip := func() *bool { v := cfgRng.IntN(2) == 1; return &v }
	pick := func(xs []int) *int { v := xs[cfgRng.IntN(len(xs))]; return &v }
	names, axes := workloadNames(), ladderSpace(serveBudget).Axes
	gap = time.Second / missRate
	for len(misses) < missRate*seconds {
		n := len(misses)
		req := lab.RunRequest{
			Workload: names[n%len(names)],
			Config: lab.ConfigSpec{
				Preset: axes.Preset[n/len(names)%len(axes.Preset)],
				T1:     flip(), ValueReuse: flip(), FetchBuffer: flip(), Recycle: flip(),
				BOQSize: pick(axes.BOQSize), FQSize: pick(axes.FQSize), VQSize: pick(axes.VQSize),
			},
			Budget: serveBudget,
		}
		cfg, err := req.Config.Config()
		if err != nil {
			return nil, nil, err
		}
		if key := lab.RunKey(req.Workload, cfg, serveBudget); !seen[key] {
			seen[key] = true
			misses = append(misses, request{time.Duration(n) * gap, req})
		}
	}
	return hits, misses, nil
}

// openLoop sends calls at their due offsets from start, one at a time in
// schedule order, whether or not earlier calls have returned on time: a
// call that is sent late because an earlier one stalled still counts
// its latency from when it was due. It returns each call's latency and
// how late it was sent.
func openLoop(start time.Time, dues []time.Duration, call func(i int)) (latency, late []time.Duration) {
	latency, late = make([]time.Duration, len(dues)), make([]time.Duration, len(dues))
	for i, d := range dues {
		due := start.Add(d)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		call(i)
		latency[i], late[i] = time.Since(due), sent.Sub(due)
	}
	return latency, late
}

// runServe is the serve workload: one r3dlad-shaped server on loopback
// with a result store, driven by the seeded two-class open-loop schedule
// from one connection per class. Interactive requests go through
// fleet.Remote and must be store hits equal to the hot set's first
// answers; batch requests go through fleet.Pool and must simulate.
// Set-up starts a cold server and warms the hot set through it; each
// repetition replays the same schedule against a fresh server.
func runServe(ctx context.Context, e *env, ck *checker, reps int, tr *tracer) (*report, error) {
	hot := hotSet()
	hits, misses, err := serveSchedule(e.seed, e.seconds, hot)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	for r := 0; r < reps; r++ {
		release()
		run, err := serveOnce(ctx, e, ck, r, hot, hits, misses, tr, rep)
		if err != nil {
			return nil, err
		}
		rep.setupS = append(rep.setupS, run.setupS)
		rep.speedup, rep.committed = run.speedup, run.committed
		rep.sims, rep.memoHits = run.sims, len(misses)-run.sims
		rep.layer = run.layer
		if r == 0 || run.service < rep.timed {
			rep.timed = run.service
		}
		ck.record(keepFastest(&rep.opMS, run.hitMS))
		ck.record(keepFastest(&rep.cellMS, run.missMS))
		ck.record(sameOutputs(rep, r, run.digest))
	}
	return rep, nil
}

// serveRun is what one repetition of the serve schedule measured.
type serveRun struct {
	setupS        float64
	service       time.Duration // summed batch service times, send to answer
	hitMS, missMS []float64
	speedup       float64
	committed     uint64
	sims          int
	digest        string
	layer         map[string]metric
}

// serveOnce sets up a fresh server, replays the schedule against it,
// checks every answer and the server's counters, and shuts it down. A
// traced run's heap and CPU samples go to rep.
func serveOnce(ctx context.Context, e *env, ck *checker, r int, hot []lab.RunRequest, hits, misses []request, tr *tracer, rep *report) (*serveRun, error) {
	run := &serveRun{}
	t0 := time.Now()
	s, err := startServer(e, r)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err := s.close(); err != nil {
			logf("closing the server: %v", err)
		}
	}()
	interactive, err := fleet.NewRemote(s.addr)
	if err != nil {
		return nil, err
	}
	defer interactive.Close()
	first := make([][]byte, len(hot))
	ipc := make([]float64, len(hot))
	errc := make([]error, len(hot))
	forEach(len(hot), e.jobs, func(k int) {
		res, err := interactive.Run(ctx, hot[k])
		if errc[k] = err; err == nil {
			first[k], ipc[k] = canonicalJSON(res), res.IPC
			errc[k] = checkCell(hot[k].Workload, res, serveBudget)
		}
	})
	if err := errors.Join(errc...); err != nil {
		return nil, fmt.Errorf("warming the hot set: %w", err)
	}
	run.setupS = time.Since(t0).Seconds()
	var r3, bl []float64
	for k := 0; k < len(hot); k += 2 {
		bl, r3 = append(bl, ipc[k]), append(r3, ipc[k+1])
	}
	run.speedup = geomean(ratios(r3, bl))

	batch, err := fleet.NewRemote(s.addr, fleet.WithPriority(lab.PriorityBatch))
	if err != nil {
		return nil, err
	}
	pool, err := fleet.NewPool([]fleet.Backend{batch})
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	stats0, err := interactive.Stats(ctx)
	if err != nil {
		return nil, err
	}
	calls0 := pool.BackendCalls()
	hitErr, hitBody := make([]error, len(hits)), make([][]byte, len(hits))
	missErr, missRes := make([]error, len(misses)), make([]*lab.RunResult, len(misses))
	hitKey := make(map[string]int, len(hot))
	for k, h := range hot {
		hitKey[h.Workload+"/"+h.Config.Preset] = k
	}

	var hitLat, hitLate, missLat, missLate []time.Duration
	ph := startPhase(tr != nil)
	cpu0 := processCPU()
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		hitLat, hitLate = openLoop(start, dues(hits), func(i int) {
			id := tr.begin("fleet.Remote.Run", noSpan)
			res, err := interactive.Run(ctx, hits[i].req)
			tr.finish(id)
			if hitErr[i] = err; err == nil {
				hitBody[i] = canonicalJSON(res)
			}
		})
	}()
	go func() {
		defer wg.Done()
		missLat, missLate = openLoop(start, dues(misses), func(i int) {
			id := tr.begin("fleet.Pool.Run", noSpan)
			missRes[i], missErr[i] = pool.Run(ctx, misses[i].req)
			tr.finish(id)
		})
	}()
	wg.Wait()
	cpu := processCPU() - cpu0
	wall := ph.end(rep)
	for i := range missLat {
		run.service += missLat[i] - missLate[i]
	}

	d := newDigest()
	for i, h := range hits {
		err := hitErr[i]
		if err == nil && !bytes.Equal(hitBody[i], first[hitKey[h.req.Workload+"/"+h.req.Config.Preset]]) {
			err = fmt.Errorf("hit %d (%s/%s) differs from the first answer for its key", i, h.req.Workload, h.req.Config.Preset)
		}
		if err == nil {
			d.add(hitBody[i])
		}
		ck.record(err)
	}
	for i, m := range misses {
		err := missErr[i]
		if err == nil {
			err = checkCell(m.req.Workload, missRes[i], serveBudget)
			run.committed += missRes[i].Committed
			d.add(canonicalJSON(missRes[i]))
		}
		ck.record(err)
	}
	run.digest = d.String()
	run.hitMS, run.missMS = msOf(hitLat), msOf(missLat)

	stats1, err := interactive.Stats(ctx)
	if err != nil {
		return nil, err
	}
	runs := stats1.Runs - stats0.Runs
	storeHits := stats1.Store.Hits - stats0.Store.Hits
	coalesced := stats1.Coalesced - stats0.Coalesced
	shed := stats1.Interactive.Shed + stats1.Batch.Shed - stats0.Interactive.Shed - stats0.Batch.Shed
	backendCalls := pool.BackendCalls() - calls0
	run.sims = runs
	ck.record(freshGuard("serve: batch cells simulated", runs, len(misses)))
	ck.record(freshGuard("serve: store hits", int(storeHits), len(hits)))
	ck.record(freshGuard("serve: fleet backend calls", int(backendCalls), len(misses)))
	ck.record(freshGuard("serve: requests coalesced", int(coalesced), 0))
	ck.record(freshGuard("serve: requests shed", int(shed), 0))
	if tr == nil {
		return run, nil
	}

	// Each guard is reported as its distance from the count the schedule
	// fixes in advance, so any change, up or down, reads as worse.
	run.layer = map[string]metric{
		"lab.runs_mismatch":            {mismatch(runs, len(misses)), "count"},
		"lab.store_hits_mismatch":      {mismatch(int(storeHits), len(hits)), "count"},
		"lab.coalesced":                {float64(coalesced), "count"},
		"lab.shed":                     {float64(shed), "count"},
		"fleet.backend_calls_mismatch": {mismatch(int(backendCalls), len(misses)), "count"},
		"lab.cpu_util":                 {cpu.Seconds() / (wall.Seconds() * float64(e.jobs)), "ratio"},
	}
	tails := map[string]struct {
		xs []float64
		q  float64
	}{
		"lab.hit_p90_ms":    {run.hitMS, 0.90},
		"lab.hit_p99_ms":    {run.hitMS, 0.99},
		"bench.gen_late_ms": {msOf(append(hitLate, missLate...)), 0.99},
	}
	for name, t := range tails {
		if v, ok := percentile(t.xs, t.q); ok {
			run.layer[name] = metric{v, "ms"}
		} else {
			logf("%s: %d samples do not support p%g", name, len(t.xs), 100*t.q)
		}
	}
	get, put := probeStore(s.store, missRes, tr)
	run.layer["resultstore.get_us"] = metric{get, "us"}
	run.layer["resultstore.put_us"] = metric{put, "us"}
	return run, nil
}

func dues(reqs []request) []time.Duration {
	out := make([]time.Duration, len(reqs))
	for i, r := range reqs {
		out[i] = r.due
	}
	return out
}

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// probeStore times direct Put and Get calls on the serving store with
// the served batch payloads, under keys no request uses, and returns the
// median of each in µs.
func probeStore(st *resultstore.Store, served []*lab.RunResult, tr *tracer) (getUS, putUS float64) {
	var gets, puts []float64
	for i := 0; i < probeCount && i < len(served); i++ {
		if served[i] == nil {
			continue
		}
		key := fmt.Sprintf("perfbench-probe|%d", i)
		body := canonicalJSON(served[i])
		id := tr.begin("resultstore.Store.Put", noSpan)
		t0 := time.Now()
		err := st.Put(key, body)
		puts = append(puts, float64(time.Since(t0).Nanoseconds())/1e3)
		tr.finish(id)
		if err != nil {
			logf("store probe: %v", err)
		}
		id = tr.begin("resultstore.Store.Get", noSpan)
		t0 = time.Now()
		_, ok := st.Get(key)
		gets = append(gets, float64(time.Since(t0).Nanoseconds())/1e3)
		tr.finish(id)
		if !ok {
			logf("store probe: %s missing after Put", key)
		}
	}
	return median(gets), median(puts)
}
