// Package chaos is the soak harness behind `r3dla chaos`: it boots an
// in-process mini-fleet of r3dlad servers on real loopback sockets, arms
// a seeded fault schedule on every layer the fault plane reaches (result
// store, sweep journal, fleet transport, server handlers),
// drives concurrent sweep + explore + run traffic through a fleet pool —
// with scheduled hard kills and restarts of backends along the way — and
// then asserts the system's robustness invariants:
//
//   - byte-identity: every output (sweep report, exploration report,
//     individual run results) is byte-identical to a fault-free local
//     baseline computed first;
//   - journal quarantine: damage injected into the checkpoint journal is
//     quarantined on resume and the resumed report is byte-identical —
//     no corrupt line ever escapes into results;
//   - metrics monotone: server counters sampled throughout the soak
//     (including across kill/restart cycles) never regress;
//   - goroutine leak: after teardown the process settles back to its
//     pre-soak goroutine count.
//
// The run is replayable: the schedule, the traffic plan and every random
// draw derive from one seed, so `r3dla chaos -seed S` renders the same
// report bytes on every passing run — determinism under failure, the
// same contract the simulator makes under concurrency.
package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"r3dla/internal/dse"
	"r3dla/internal/faultinject"
	"r3dla/internal/fleet"
	"r3dla/internal/lab"
	"r3dla/internal/resultstore"
	"r3dla/internal/sweep"
)

// Config parameterizes one soak.
type Config struct {
	Seed    int64     // drives the schedule and every random draw
	Servers int       // mini-fleet size (default 2, minimum 2 when Kills > 0)
	Budget  uint64    // committed instructions per simulation (default 2000)
	Kills   int       // scheduled kill/restart cycles (default 1)
	Dir     string    // scratch directory (default: a fresh temp dir, removed on success)
	Diag    io.Writer // diagnostics stream (default: discard); NOT byte-stable
}

// Invariant is one checked property of the soak.
type Invariant struct {
	Name   string
	Pass   bool
	Detail string // populated only on failure; not part of the stable report
}

// Report is the outcome of one soak. Everything Render writes for a
// passing run is a pure function of the Config, so two runs with the
// same seed produce byte-identical reports.
type Report struct {
	Seed         int64
	Servers      int
	Budget       uint64
	Workloads    []string
	Kills        int
	Schedule     []string
	SweepCells   int
	ExploreEvals int
	RunRequests  int
	Invariants   []Invariant
}

// Pass reports whether every invariant held.
func (r *Report) Pass() bool {
	for _, inv := range r.Invariants {
		if !inv.Pass {
			return false
		}
	}
	return true
}

// Render writes the report. Passing runs render deterministically;
// failing invariants append their (free-form) detail lines.
func (r *Report) Render(w io.Writer) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "r3dla chaos soak\n")
	fmt.Fprintf(&b, "seed:      %d\n", r.Seed)
	fmt.Fprintf(&b, "servers:   %d\n", r.Servers)
	fmt.Fprintf(&b, "budget:    %d\n", r.Budget)
	fmt.Fprintf(&b, "workloads: %s\n", joinList(r.Workloads))
	fmt.Fprintf(&b, "kills:     %d\n", r.Kills)
	fmt.Fprintf(&b, "schedule:\n")
	for _, line := range r.Schedule {
		fmt.Fprintf(&b, "  %s\n", line)
	}
	fmt.Fprintf(&b, "traffic:\n")
	fmt.Fprintf(&b, "  sweep:   %d cells\n", r.SweepCells)
	fmt.Fprintf(&b, "  explore: %d evaluations\n", r.ExploreEvals)
	fmt.Fprintf(&b, "  runs:    %d requests\n", r.RunRequests)
	fmt.Fprintf(&b, "invariants:\n")
	for _, inv := range r.Invariants {
		verdict := "PASS"
		if !inv.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "  %-22s %s\n", inv.Name, verdict)
		if !inv.Pass && inv.Detail != "" {
			fmt.Fprintf(&b, "    %s\n", inv.Detail)
		}
	}
	verdict := "PASS"
	if !r.Pass() {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "result: %s\n", verdict)
	_, err := w.Write(b.Bytes())
	return err
}

func joinList(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += ","
		}
		out += s
	}
	return out
}

// The fixed traffic plan. Small on purpose: the soak's value is in the
// interleaving of faults with concurrent traffic, not in simulation
// volume — CI runs it under -race twice and compares report bytes.
var (
	soakWorkloads = []string{"mcf", "libq"}

	runConfigs = []lab.ConfigSpec{
		{Preset: "baseline"},
		{Preset: "dla"},
		{Preset: "r3"},
		{Preset: "r3", BOQSize: intp(256)},
	}
)

func intp(v int) *int { return &v }

func sweepSpec(budget uint64) sweep.Spec {
	return sweep.Spec{
		Workloads: soakWorkloads,
		Budget:    budget,
		Axes: sweep.Axes{
			Preset:  []string{"dla", "r3"},
			BOQSize: []int{128, 512},
		},
	}
}

func exploreSpec(seed int64, budget uint64) dse.Spec {
	return dse.Spec{
		Space: sweep.Spec{
			Workloads: soakWorkloads[:1],
			Budget:    budget,
			Axes: sweep.Axes{
				Preset:  []string{"r3"},
				BOQSize: []int{16, 64, 256, 1024},
				FQSize:  []int{16, 64},
			},
		},
		Strategy: dse.StrategyRandom,
		Seed:     seed,
		Samples:  6,
	}
}

// armSchedule builds the seeded fault schedule. Arm order is fixed;
// the seed chooses offsets, probabilities, delays and damage positions,
// so the rendered schedule is a deterministic function of the seed.
// Every destructive policy is Limit-bounded: the soak must degrade the
// system, not wedge it (retry budgets absorb bounded fault chains).
func armSchedule(p *faultinject.Plane, seed int64) {
	s := faultinject.Rand(seed, "chaos.schedule")
	p.MustArm(faultinject.Policy{Point: faultinject.RemoteConnect, Mode: faultinject.Error, Limit: 3, After: s.Intn(4)})
	p.MustArm(faultinject.Policy{Point: faultinject.RemoteConnect, Mode: faultinject.Delay, Delay: time.Duration(1+s.Intn(5)) * time.Millisecond, Prob: 0.5, Limit: 4})
	p.MustArm(faultinject.Policy{Point: faultinject.RemoteStream, Mode: faultinject.Drop, Drop: int64(40 + s.Intn(200)), Limit: 2, After: s.Intn(3)})
	p.MustArm(faultinject.Policy{Point: faultinject.ServerRun, Mode: faultinject.Error, Limit: 3, After: s.Intn(4)})
	p.MustArm(faultinject.Policy{Point: faultinject.ServerRun, Mode: faultinject.Delay, Delay: time.Duration(1+s.Intn(8)) * time.Millisecond, Prob: 0.5, Limit: 4})
	p.MustArm(faultinject.Policy{Point: faultinject.ResultStoreGet, Mode: faultinject.Error, Limit: 2})
	p.MustArm(faultinject.Policy{Point: faultinject.ResultStorePut, Mode: faultinject.Torn, Limit: 1, After: s.Intn(3)})
	p.MustArm(faultinject.Policy{Point: faultinject.ResultStorePut, Mode: faultinject.Corrupt, Limit: 1, After: s.Intn(3)})
	p.MustArm(faultinject.Policy{Point: faultinject.ResultStorePut, Mode: faultinject.ENOSPC, Limit: 1})
	p.MustArm(faultinject.Policy{Point: faultinject.JournalAppend, Mode: faultinject.Torn, Limit: 1, After: 1 + s.Intn(3)})
	p.MustArm(faultinject.Policy{Point: faultinject.JournalAppend, Mode: faultinject.Corrupt, Limit: 1, After: 3 + s.Intn(3)})
}

// backend is one mini-fleet member: a shared Lab + Server handler that
// survives kill/restart cycles (only the http.Server and listener are
// replaced, so counters, caches and the store stay monotone and warm —
// exactly like a crashed daemon restarting over its directories).
type backend struct {
	name  string
	api   *lab.Server
	addr  string
	store *resultstore.Store

	mu  sync.Mutex
	srv *http.Server
	lis net.Listener
}

func (b *backend) serve() {
	b.mu.Lock()
	srv, lis := b.srv, b.lis
	b.mu.Unlock()
	srv.Serve(lis) // returns on Close; error is expected teardown noise
}

// kill hard-closes the backend: the listener and every active
// connection drop immediately (in-flight clients see a reset).
func (b *backend) kill() {
	b.mu.Lock()
	srv := b.srv
	b.mu.Unlock()
	srv.Close()
}

// restart rebinds the same address and serves again. The address was
// just released by kill, but the OS may lag; retry briefly.
func (b *backend) restart() error {
	var lis net.Listener
	var err error
	for i := 0; i < 100; i++ {
		if lis, err = net.Listen("tcp", b.addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("chaos: restart %s: %v", b.name, err)
	}
	b.mu.Lock()
	b.srv = &http.Server{Handler: b.api}
	b.lis = lis
	b.mu.Unlock()
	go b.serve()
	return nil
}

func (b *backend) shutdown() {
	b.kill()
}

// newBackend boots one server: its own Lab, its own result store
// (shared plane), and the server-side fault gate.
func newBackend(i int, dir string, budget uint64, plane *faultinject.Plane) (*backend, error) {
	name := fmt.Sprintf("backend-%d", i)
	storeDir := filepath.Join(dir, name, "store")
	l, err := lab.New(lab.WithBudget(budget), lab.WithJobs(2))
	if err != nil {
		return nil, err
	}
	st, err := resultstore.Open(storeDir, lab.ResultsFingerprint, 0)
	if err != nil {
		return nil, err
	}
	st.SetFaults(plane)
	api := lab.NewServer(l,
		lab.WithMaxInflight(16),
		lab.WithResultStore(st),
		lab.WithServerFaults(plane),
	)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b := &backend{
		name:  name,
		api:   api,
		addr:  lis.Addr().String(),
		store: st,
		srv:   &http.Server{Handler: api},
		lis:   lis,
	}
	go b.serve()
	return b, nil
}

// monitor samples every backend's /v1/stats throughout the soak and
// asserts the counters never regress — including across kill/restart
// cycles, where the Server object (and so its counters) survives the
// dead sockets. Fetch errors during a blackout are skipped, not
// violations.
type monitor struct {
	backends []*backend
	hc       *http.Client
	stop     chan struct{}
	done     chan struct{}

	mu         sync.Mutex
	samples    int
	violations []string
	last       map[string][]int64
}

func newMonitor(backends []*backend) *monitor {
	m := &monitor{
		backends: backends,
		hc:       &http.Client{Timeout: 2 * time.Second},
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		last:     make(map[string][]int64),
	}
	go m.loop()
	return m
}

func counterVector(st *lab.Stats) []int64 {
	return []int64{
		st.Completed, st.Canceled, int64(st.Runs), st.Coalesced,
		st.Interactive.Admitted, st.Interactive.Shed,
		st.Batch.Admitted, st.Batch.Shed,
		st.Store.Puts, st.Store.Hits, st.Store.Misses, st.Store.Evictions,
	}
}

var counterNames = []string{
	"completed", "canceled", "runs", "coalesced_waiters",
	"interactive.admitted", "interactive.shed",
	"batch.admitted", "batch.shed",
	"store.puts", "store.hits", "store.misses", "store.evictions",
}

func (m *monitor) loop() {
	defer close(m.done)
	tick := time.NewTicker(15 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-tick.C:
			for _, b := range m.backends {
				m.sample(b)
			}
		}
	}
}

func (m *monitor) sample(b *backend) {
	resp, err := m.hc.Get("http://" + b.addr + "/v1/stats")
	if err != nil {
		return // blackout window (killed backend): not a violation
	}
	var st lab.Stats
	derr := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if derr != nil {
		return
	}
	vec := counterVector(&st)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.samples++
	if prev, ok := m.last[b.name]; ok {
		for i, v := range vec {
			if v < prev[i] {
				m.violations = append(m.violations,
					fmt.Sprintf("%s: counter %s regressed %d -> %d", b.name, counterNames[i], prev[i], v))
			}
		}
	}
	m.last[b.name] = vec
}

func (m *monitor) finish() (samples int, violations []string) {
	close(m.stop)
	<-m.done
	m.hc.CloseIdleConnections()
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.samples, m.violations
}

// killer executes the seeded kill plan: after the pool's cumulative
// backend-call counter crosses each threshold, one backend is
// hard-killed, left dark briefly, and restarted on the same address.
// Thresholds are request-count-based, not wall-clock-based, so the plan
// is a function of the seed even on wildly different machines.
func killer(ctx context.Context, seed int64, kills int, backends []*backend, pool *fleet.Pool, diag io.Writer, stop <-chan struct{}) {
	s := faultinject.Rand(seed, "chaos.kills")
	threshold := int64(3 + s.Intn(5))
	for k := 0; k < kills; k++ {
		victim := backends[s.Intn(len(backends))]
		for pool.BackendCalls() < threshold {
			select {
			case <-stop:
				return
			case <-ctx.Done():
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
		fmt.Fprintf(diag, "chaos: kill %d: %s after %d backend calls\n", k, victim.name, pool.BackendCalls())
		victim.kill()
		time.Sleep(30 * time.Millisecond)
		if err := victim.restart(); err != nil {
			fmt.Fprintf(diag, "chaos: %v\n", err)
			return
		}
		fmt.Fprintf(diag, "chaos: kill %d: %s restarted\n", k, victim.name)
		threshold += int64(6 + s.Intn(6))
	}
}

func reportJSON(rep interface{ WriteJSON(io.Writer) error }) ([]byte, error) {
	var b bytes.Buffer
	if err := rep.WriteJSON(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// baseline holds the fault-free expected bytes for every traffic stream.
type baseline struct {
	lab     *lab.Lab // kept: the journal-resume pass re-runs cells on it
	sweep   []byte
	explore []byte
	runs    [][]byte
}

// computeBaseline runs the whole traffic plan on one local fault-free
// Lab. Determinism makes these the expected bytes for the chaos pass no
// matter what the fault plane does.
func computeBaseline(ctx context.Context, cfg Config) (*baseline, error) {
	l, err := lab.New(lab.WithBudget(cfg.Budget))
	if err != nil {
		return nil, err
	}
	bl := &baseline{lab: l}

	sres, err := sweep.Run(ctx, l, sweepSpec(cfg.Budget), sweep.Options{})
	if err != nil {
		return nil, fmt.Errorf("chaos: baseline sweep: %w", err)
	}
	if bl.sweep, err = reportJSON(sres.Report()); err != nil {
		return nil, err
	}

	eres, err := dse.Explore(ctx, l, exploreSpec(cfg.Seed, cfg.Budget), dse.Options{})
	if err != nil {
		return nil, fmt.Errorf("chaos: baseline explore: %w", err)
	}
	if bl.explore, err = reportJSON(eres.Report()); err != nil {
		return nil, err
	}

	for i, c := range runConfigs {
		w := soakWorkloads[i%len(soakWorkloads)]
		res, err := l.Run(ctx, lab.RunRequest{Workload: w, Config: c, Budget: cfg.Budget})
		if err != nil {
			return nil, fmt.Errorf("chaos: baseline run %s: %w", w, err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		bl.runs = append(bl.runs, raw)
	}
	return bl, nil
}

// Soak executes one chaos soak and returns its report. A non-nil error
// means the harness itself could not run (setup failure, traffic that
// never completed); invariant failures are reported in the Report, not
// as errors.
func Soak(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.Servers == 0 {
		cfg.Servers = 2
	}
	if cfg.Budget == 0 {
		cfg.Budget = 2000
	}
	if cfg.Kills < 0 {
		cfg.Kills = 0
	}
	if cfg.Kills > 0 && cfg.Servers < 2 {
		return nil, errors.New("chaos: kills require at least 2 servers (a lone killed backend strands traffic)")
	}
	if cfg.Diag == nil {
		cfg.Diag = io.Discard
	}
	cleanup := false
	if cfg.Dir == "" {
		dir, err := os.MkdirTemp("", "r3dla-chaos-*")
		if err != nil {
			return nil, err
		}
		cfg.Dir = dir
		cleanup = true
	}

	goroutines := runtime.NumGoroutine()

	rep := &Report{
		Seed:      cfg.Seed,
		Servers:   cfg.Servers,
		Budget:    cfg.Budget,
		Workloads: soakWorkloads,
		Kills:     cfg.Kills,
	}

	fmt.Fprintf(cfg.Diag, "chaos: computing fault-free baseline\n")
	bl, err := computeBaseline(ctx, cfg)
	if err != nil {
		return nil, err
	}

	// ---- boot the mini-fleet under one shared fault plane
	plane := faultinject.New(cfg.Seed)
	armSchedule(plane, cfg.Seed)
	rep.Schedule = plane.Schedule()

	backends := make([]*backend, cfg.Servers)
	for i := range backends {
		if backends[i], err = newBackend(i, cfg.Dir, cfg.Budget, plane); err != nil {
			return nil, err
		}
	}
	remotes := make([]fleet.Backend, cfg.Servers)
	for i, b := range backends {
		r, err := fleet.NewRemote(b.addr, fleet.WithFaults(plane))
		if err != nil {
			return nil, err
		}
		remotes[i] = r
	}
	pool, err := fleet.NewPool(remotes,
		fleet.WithJobs(8),
		fleet.WithRetries(8),
		fleet.WithProbeEvery(25*time.Millisecond),
	)
	if err != nil {
		return nil, err
	}

	mon := newMonitor(backends)
	killStop := make(chan struct{})
	var killWG sync.WaitGroup
	if cfg.Kills > 0 {
		killWG.Add(1)
		go func() {
			defer killWG.Done()
			killer(ctx, cfg.Seed, cfg.Kills, backends, pool, cfg.Diag, killStop)
		}()
	}

	// ---- concurrent traffic: sweep (journaled) + explore + runs
	fmt.Fprintf(cfg.Diag, "chaos: starting traffic against %d backends\n", cfg.Servers)
	journal := filepath.Join(cfg.Dir, "sweep.ndjson")
	var (
		wg          sync.WaitGroup
		trafficMu   sync.Mutex
		trafficErrs []error
		sweepBytes  []byte
		expBytes    []byte
		expEvals    int
		runBytes    = make([][]byte, len(runConfigs))
	)
	fail := func(err error) {
		trafficMu.Lock()
		trafficErrs = append(trafficErrs, err)
		trafficMu.Unlock()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		res, err := sweep.Run(ctx, pool, sweepSpec(cfg.Budget), sweep.Options{
			Journal: journal,
			Faults:  plane,
			Warn: func(format string, args ...any) {
				fmt.Fprintf(cfg.Diag, format+"\n", args...)
			},
		})
		if err != nil {
			fail(fmt.Errorf("chaos: sweep traffic: %w", err))
			return
		}
		raw, err := reportJSON(res.Report())
		if err != nil {
			fail(err)
			return
		}
		trafficMu.Lock()
		sweepBytes = raw
		rep.SweepCells = len(res.Cells)
		trafficMu.Unlock()
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		res, err := dse.Explore(ctx, pool, exploreSpec(cfg.Seed, cfg.Budget), dse.Options{})
		if err != nil {
			fail(fmt.Errorf("chaos: explore traffic: %w", err))
			return
		}
		raw, err := reportJSON(res.Report())
		if err != nil {
			fail(err)
			return
		}
		trafficMu.Lock()
		expBytes = raw
		expEvals = len(res.Evaluated)
		trafficMu.Unlock()
	}()

	for i, c := range runConfigs {
		wg.Add(1)
		go func(i int, c lab.ConfigSpec) {
			defer wg.Done()
			w := soakWorkloads[i%len(soakWorkloads)]
			res, err := pool.Run(ctx, lab.RunRequest{Workload: w, Config: c, Budget: cfg.Budget})
			if err != nil {
				fail(fmt.Errorf("chaos: run traffic %s: %w", w, err))
				return
			}
			raw, err := json.Marshal(res)
			if err != nil {
				fail(err)
				return
			}
			trafficMu.Lock()
			runBytes[i] = raw
			trafficMu.Unlock()
		}(i, c)
	}
	wg.Wait()
	close(killStop)
	killWG.Wait()

	if len(trafficErrs) > 0 {
		// The soak could not complete: that is a harness failure (faults
		// must degrade, never wedge), so report it as an error with every
		// stream's failure attached.
		return nil, errors.Join(trafficErrs...)
	}
	rep.ExploreEvals = expEvals
	rep.RunRequests = len(runConfigs)
	for pt, n := range plane.Fires() {
		fmt.Fprintf(cfg.Diag, "chaos: fired %d at %s\n", n, pt)
	}

	// ---- invariant: byte-identity of every traffic stream
	check := func(name string, pass bool, detail string, args ...any) {
		inv := Invariant{Name: name, Pass: pass}
		if !pass {
			inv.Detail = fmt.Sprintf(detail, args...)
		}
		rep.Invariants = append(rep.Invariants, inv)
	}
	check("sweep-byte-identity", bytes.Equal(sweepBytes, bl.sweep),
		"sweep report under faults differs from the fault-free baseline (%d vs %d bytes)", len(sweepBytes), len(bl.sweep))
	check("explore-byte-identity", bytes.Equal(expBytes, bl.explore),
		"exploration report under faults differs from the fault-free baseline (%d vs %d bytes)", len(expBytes), len(bl.explore))
	runsOK := true
	runsDetail := ""
	for i := range runConfigs {
		if !bytes.Equal(runBytes[i], bl.runs[i]) {
			runsOK = false
			runsDetail = fmt.Sprintf("run %d under faults differs from the fault-free baseline", i)
			break
		}
	}
	check("run-byte-identity", runsOK, "%s", runsDetail)

	// ---- invariant: journal damage is quarantined, resume heals
	check("journal-quarantine", true, "")
	if qres, err := resumeAfterDamage(ctx, cfg, bl, journal, plane); err != nil {
		rep.Invariants[len(rep.Invariants)-1] = Invariant{Name: "journal-quarantine", Pass: false, Detail: err.Error()}
	} else {
		fmt.Fprintf(cfg.Diag, "chaos: resume quarantined %d line(s), restored %d cells\n", qres.quarantined, qres.resumed)
	}

	// ---- teardown, then invariants over the runtime itself
	pool.Close()
	for _, b := range backends {
		b.shutdown()
	}
	samples, violations := mon.finish()
	fmt.Fprintf(cfg.Diag, "chaos: monitor took %d samples\n", samples)
	check("metrics-monotone", len(violations) == 0, "counter regressions: %v", violations)

	leaked := -1
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if n := runtime.NumGoroutine(); n <= goroutines+2 {
			leaked = 0
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if leaked != 0 {
		leaked = runtime.NumGoroutine() - goroutines
	}
	check("goroutine-leak", leaked == 0,
		"%d goroutines above the pre-soak count after teardown", leaked)

	if rep.Pass() && cleanup {
		os.RemoveAll(cfg.Dir)
	} else if !rep.Pass() {
		fmt.Fprintf(cfg.Diag, "chaos: scratch dir kept at %s\n", cfg.Dir)
	}
	return rep, nil
}

type resumeResult struct {
	quarantined int
	resumed     int
}

// resumeAfterDamage replays the sweep with -resume over the journal the
// chaos pass wrote under injected append damage. Every damaged line must
// be quarantined (never silently restored), the healed report must be
// byte-identical to the baseline, and a second resume must find a fully
// clean journal.
func resumeAfterDamage(ctx context.Context, cfg Config, bl *baseline, journal string, plane *faultinject.Plane) (*resumeResult, error) {
	res, err := sweep.Run(ctx, bl.lab, sweepSpec(cfg.Budget), sweep.Options{
		Journal: journal,
		Resume:  true,
		Warn:    func(string, ...any) {},
	})
	if err != nil {
		return nil, fmt.Errorf("resume over damaged journal failed: %w", err)
	}
	raw, err := reportJSON(res.Report())
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(raw, bl.sweep) {
		return nil, errors.New("resumed sweep report differs from the fault-free baseline: journal damage escaped quarantine")
	}
	if res.Quarantined > 0 {
		if _, err := os.Stat(journal + ".quarantine"); err != nil {
			return nil, fmt.Errorf("quarantined %d line(s) but no quarantine file: %v", res.Quarantined, err)
		}
	}
	// The journal is healed now: one more resume must restore every cell
	// and quarantine nothing.
	again, err := sweep.Run(ctx, bl.lab, sweepSpec(cfg.Budget), sweep.Options{
		Journal: journal,
		Resume:  true,
	})
	if err != nil {
		return nil, fmt.Errorf("second resume failed: %w", err)
	}
	if again.Quarantined != 0 {
		return nil, fmt.Errorf("second resume quarantined %d line(s); the first resume did not heal the journal", again.Quarantined)
	}
	if again.Resumed != len(again.Cells) {
		return nil, fmt.Errorf("second resume restored %d/%d cells; the healed journal is incomplete", again.Resumed, len(again.Cells))
	}
	return &resumeResult{quarantined: res.Quarantined, resumed: res.Resumed}, nil
}
