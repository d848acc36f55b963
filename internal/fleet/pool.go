package fleet

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"r3dla/internal/exp"
	"r3dla/internal/lab"
)

// Pool routes requests across a set of backends. Dispatch is least-loaded
// (client-side inflight accounting, refined by the server-reported load
// from /v1/stats when a member exposes it); a member whose request fails
// with a backend fault has its breaker opened and the cell is retried on
// a different member (bounded attempts, failed members excluded); after
// the breaker's cooldown one real request decides whether the member is
// back; and an optional hedge duplicates straggler requests onto a
// second member — safe because every request is deterministic, so
// whichever copy finishes first carries the same bytes.
//
// The pool keeps routing state only, no results: the serving backends'
// run memos and result stores already coalesce and keep every cell.
type Pool struct {
	members []*member

	retries    int           // max attempts per request
	hedge      time.Duration // 0 = no hedging
	probeEvery time.Duration // load-probe cadence and first breaker cooldown
	jobs       chan struct{} // total-dispatch semaphore; nil = unlimited

	issued atomic.Int64 // backend calls actually issued (retries and hedges count)

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// member wraps one backend with its routing state.
type member struct {
	b        Backend
	inflight atomic.Int64 // requests this pool currently has on the member
	load     atomic.Int64 // server-reported inflight at the last stats probe
	brk      *breaker     // the member's health
}

// PoolOption configures a Pool.
type PoolOption func(*Pool)

// WithRetries bounds how many backends one request may be attempted on
// before its last error surfaces (default 3; each attempt excludes the
// members that already failed it).
func WithRetries(n int) PoolOption {
	return func(p *Pool) {
		if n > 0 {
			p.retries = n
		}
	}
}

// WithHedgeAfter duplicates a request onto a second backend when the
// first has not answered within d; the first successful copy wins and the
// other is canceled. 0 (the default) disables hedging.
func WithHedgeAfter(d time.Duration) PoolOption {
	return func(p *Pool) { p.hedge = d }
}

// WithProbeEvery sets how often the pool refreshes members' server load,
// and how long a member's breaker stays open after its first hard fault
// (default 5s; the cooldown doubles per failed trial up to 8x).
func WithProbeEvery(d time.Duration) PoolOption {
	return func(p *Pool) {
		if d > 0 {
			p.probeEvery = d
		}
	}
}

// WithJobs bounds how many requests the pool has in flight across all
// members (<= 0 = unlimited, the default: each backend already bounds its
// own compute, and admission control sheds the rest).
func WithJobs(n int) PoolOption {
	return func(p *Pool) {
		if n > 0 {
			p.jobs = make(chan struct{}, n)
		}
	}
}

// NewPool builds a router over the given backends and starts its load
// prober. Members start with closed breakers (the first failed dispatch
// opens one); Close stops the prober and closes every backend.
func NewPool(backends []Backend, opts ...PoolOption) (*Pool, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("%w: empty pool", ErrNoBackends)
	}
	p := &Pool{retries: 3, probeEvery: 5 * time.Second, stop: make(chan struct{})}
	for _, o := range opts {
		o(p)
	}
	for _, b := range backends {
		p.members = append(p.members, &member{b: b, brk: newBreaker(p.probeEvery)})
	}
	p.wg.Add(1)
	go p.prober()
	return p, nil
}

// Close stops the load prober and closes every member backend.
func (p *Pool) Close() error {
	var err error
	p.closeOnce.Do(func() {
		close(p.stop)
		p.wg.Wait()
		for _, m := range p.members {
			if cerr := m.b.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	})
	return err
}

// BackendCalls reports how many requests were actually issued to members
// (retries and hedges each count). The resume tests assert against it
// the way lab.RunCount is asserted locally.
func (p *Pool) BackendCalls() int64 { return p.issued.Load() }

// MemberStatus is one member's routing view.
type MemberStatus struct {
	Name     string
	Healthy  bool // the breaker is closed
	Inflight int64
	Breaker  string // "closed", "open" or "half-open"
}

// Status snapshots every member's routing state in construction order.
func (p *Pool) Status() []MemberStatus {
	out := make([]MemberStatus, len(p.members))
	for i, m := range p.members {
		st := m.brk.current()
		out[i] = MemberStatus{
			Name: m.b.Name(), Healthy: st == brkClosed,
			Inflight: m.inflight.Load(), Breaker: st.String(),
		}
	}
	return out
}

// ------------------------------------------------------------- dispatch

// Run executes one simulation somewhere in the fleet, routed by its
// canonical workload|configKey@budget key.
func (p *Pool) Run(ctx context.Context, req lab.RunRequest) (*lab.RunResult, error) {
	cfg, err := req.Config.Config()
	if err != nil {
		return nil, err
	}
	return dispatch(ctx, p, lab.RunKey(req.Workload, cfg, req.Budget), func(ctx context.Context, m *member) (*lab.RunResult, error) {
		return m.b.Run(ctx, req)
	})
}

// Experiment regenerates one artifact somewhere in the fleet (at the
// serving backend's budget — the CLI verifies the fleet is homogeneous).
func (p *Pool) Experiment(ctx context.Context, id string) (*lab.Report, error) {
	return dispatch(ctx, p, "", func(ctx context.Context, m *member) (*lab.Report, error) {
		return m.b.Experiment(ctx, id)
	})
}

// Experiments regenerates several artifacts concurrently across the
// fleet, delivering results in id order exactly like lab.Experiments —
// assembled output is byte-identical to a local run at the same budget.
func (p *Pool) Experiments(ctx context.Context, ids []string, onResult func(lab.ExperimentResult)) ([]lab.ExperimentResult, error) {
	infos := make([]lab.ExperimentInfo, len(ids))
	for i, id := range ids {
		info, ok := lab.ExperimentByID(id)
		if !ok {
			return nil, fmt.Errorf("%w: %q", lab.ErrUnknownExperiment, id)
		}
		infos[i] = info
	}
	results := exp.RunOrdered(len(ids), func(i int) exp.Result {
		start := time.Now()
		rep, err := p.Experiment(ctx, ids[i])
		return exp.Result{ID: infos[i].ID, Title: infos[i].Title, Report: rep, Err: err, Elapsed: time.Since(start)}
	}, onResult)
	if ctx.Err() != nil {
		for _, r := range results {
			if r.Err != nil {
				return results, ctx.Err()
			}
		}
	}
	return results, nil
}

// Overload backpressure: when a member sheds a request with 503 it is
// soft-excluded so the next pick prefers a different member; when every
// candidate is shedding, the dispatcher waits (doubling from
// overloadWait up to overloadWaitMax) and tries the whole pool again, up
// to overloadRounds waits before the overload surfaces as the error.
// Capacity normally frees as the pool's own in-flight requests complete,
// so a sweep larger than the fleet's admission capacity drains instead
// of failing.
const (
	overloadRounds  = 10
	overloadWait    = 25 * time.Millisecond
	overloadWaitMax = time.Second
)

// dispatch runs call against the fleet: the key's cache-affinity member
// first when key is non-empty (least-loaded otherwise), bounded retries
// on different members for hard faults, backpressure waits for overload,
// the first attempt optionally hedged. Non-retryable errors (validation,
// the caller's cancellation) surface immediately.
func dispatch[T any](ctx context.Context, p *Pool, key string, call func(context.Context, *member) (T, error)) (T, error) {
	var zero T
	if p.jobs != nil {
		select {
		case p.jobs <- struct{}{}:
			defer func() { <-p.jobs }()
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
	excluded := make(map[*member]bool) // hard faults: avoided; re-offered with backoff while attempts remain
	shedding := make(map[*member]bool) // overloaded: avoided, then re-offered
	var lastErr error
	rounds, wait := 0, overloadWait
	for attempt := 0; attempt < p.retries; {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		avoid := excluded
		if len(shedding) > 0 {
			avoid = make(map[*member]bool, len(excluded)+len(shedding))
			for m := range excluded {
				avoid[m] = true
			}
			for m := range shedding {
				avoid[m] = true
			}
		}
		m := p.pickKeyed(key, avoid)
		if m == nil {
			reoffer := false
			switch {
			case len(shedding) > 0 && rounds < overloadRounds:
				reoffer = true
			case len(excluded) > 0 && attempt < p.retries:
				// Every candidate hard-faulted during this dispatch, but
				// retry budget remains: a reset connection or a restarting
				// backend is transient, not terminal. Re-offer the excluded
				// members after the same backoff rather than failing a
				// request the fleet could still serve. Termination holds —
				// each hard fault consumes an attempt, so this path runs at
				// most p.retries times.
				reoffer = true
			}
			if !reoffer {
				break
			}
			rounds++
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return zero, ctx.Err()
			}
			if wait *= 2; wait > overloadWaitMax {
				wait = overloadWaitMax
			}
			clear(shedding) // re-offer everyone; capacity may have freed
			clear(excluded)
			continue
		}
		res, fails := hedged(ctx, p, m, avoid, call, attempt == 0)
		if fails == nil {
			return res, nil
		}
		// Classify every member that failed this attempt (with hedging,
		// the primary and the hedge can fail differently — each failure
		// is attributed to the member that produced it).
		for _, f := range fails {
			if !Retryable(f.err) {
				return zero, f.err
			}
			lastErr = f.err
			if errors.Is(f.err, ErrOverloaded) {
				shedding[f.m] = true // alive, just busy — no attempt consumed
			} else {
				excluded[f.m] = true
				attempt++
			}
		}
	}
	if lastErr == nil {
		return zero, ErrNoBackends
	}
	return zero, fmt.Errorf("fleet: request failed on %d backend(s), last: %w", len(excluded)+len(shedding), lastErr)
}

// runMember issues one call on m with inflight accounting and feeds the
// outcome to m's breaker: an answer closes it (a 503 shed is an answer —
// the member is alive, just full), a hard fault opens it.
func runMember[T any](ctx context.Context, p *Pool, m *member, call func(context.Context, *member) (T, error)) (T, error) {
	p.issued.Add(1)
	m.inflight.Add(1)
	defer m.inflight.Add(-1)
	res, err := call(ctx, m)
	switch {
	case err == nil || errors.Is(err, ErrOverloaded):
		m.brk.success()
	case Retryable(err):
		// The last probed load is dead data now; the member comes back
		// from a clean slate instead of biasing routing with its past.
		m.load.Store(0)
		m.brk.failure(time.Now())
	}
	return res, err
}

// memberFail attributes one failed attempt to the member that produced
// it, so the dispatcher sheds or excludes the right one.
type memberFail struct {
	m   *member
	err error
}

// hedged runs one attempt on m; when hedging is enabled and m has not
// answered within the hedge delay, the same request is duplicated onto a
// different member and the first success wins (the loser is canceled).
// On success fails is nil; otherwise it lists every member that failed,
// each with its own error. The hedge launch borrows a jobs slot
// non-blockingly — hedging uses spare capacity, it never exceeds the
// pool's in-flight bound.
func hedged[T any](ctx context.Context, p *Pool, m *member, avoid map[*member]bool, call func(context.Context, *member) (T, error), mayHedge bool) (T, []memberFail) {
	var zero T
	if p.hedge <= 0 || !mayHedge {
		res, err := runMember(ctx, p, m, call)
		if err == nil {
			return res, nil
		}
		return zero, []memberFail{{m, err}}
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		m   *member
		res T
		err error
	}
	outc := make(chan outcome, 2)
	go func() {
		res, err := runMember(actx, p, m, call)
		outc <- outcome{m, res, err}
	}()
	outstanding := 1
	hedgeAt := time.After(p.hedge)
	var fails []memberFail
	for {
		select {
		case o := <-outc:
			outstanding--
			if o.err == nil {
				return o.res, nil
			}
			fails = append(fails, memberFail{o.m, o.err})
			if outstanding == 0 {
				return zero, fails
			}
		case <-hedgeAt:
			hedgeAt = nil // fire at most once; a nil channel never selects
			ex := make(map[*member]bool, len(avoid)+1)
			for k := range avoid {
				ex[k] = true
			}
			ex[m] = true
			h := p.pick(ex)
			if h == nil {
				continue
			}
			release := func() {}
			if p.jobs != nil {
				select {
				case p.jobs <- struct{}{}:
					release = func() { <-p.jobs }
				default:
					continue // no spare capacity; don't hedge
				}
			}
			outstanding++
			go func() {
				res, err := runMember(actx, p, h, call)
				release()
				outc <- outcome{h, res, err}
			}()
		}
	}
}

// pickKeyed selects the member to serve one keyed request: the key's
// rendezvous-hash owner when that member is no busier than the
// least-loaded candidate, the least-loaded member otherwise. Every
// client hashing the same workload|configKey@budget key picks the same
// owner, so fleet members (r3dlad instances with result stores) become a
// coherent caching tier — repeated requests land where the answer
// already is — while a busy owner still overflows to idle members rather
// than queueing behind itself. An empty key (experiments) is pure
// least-loaded.
func (p *Pool) pickKeyed(key string, excluded map[*member]bool) *member {
	best := p.pick(excluded)
	if best == nil || key == "" {
		return best
	}
	now := time.Now()
	var aff *member
	var affScore uint64
	for _, m := range p.members {
		if excluded[m] || m.brk.blocked(now, m.inflight.Load()) {
			continue
		}
		if score := rendezvousScore(key, m.b.Name()); aff == nil || score > affScore {
			aff, affScore = m, score
		}
	}
	if aff != nil && aff.inflight.Load() <= best.inflight.Load() {
		return aff
	}
	return best
}

// rendezvousScore is the highest-random-weight hash of (member, key):
// each member scores every key independently, so removing a member only
// remaps the keys it owned. The key is hashed before the name: FNV-1a
// mixes trailing differences far better than leading ones, and member
// names often differ only in their final characters (b0/b1, :8123/:8124)
// — name-first scoring would hand whole key ranges to one member.
func rendezvousScore(key, name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write([]byte{0})
	h.Write([]byte(name))
	return h.Sum64()
}

// pick selects the least-loaded eligible member: not excluded and not
// blocked by its breaker, ordered by this pool's inflight count, then the
// server-reported load from the last stats probe, then construction
// order. When every unblocked member is excluded it falls back to the
// blocked ones: failing fast on a real attempt beats failing with
// ErrNoBackends, and a backend that just came back serves traffic before
// its cooldown ends.
func (p *Pool) pick(excluded map[*member]bool) *member {
	best := p.pickFrom(excluded, true)
	if best == nil {
		best = p.pickFrom(excluded, false)
	}
	return best
}

func (p *Pool) pickFrom(excluded map[*member]bool, honorBreaker bool) *member {
	now := time.Now()
	var best *member
	var bestIn, bestLoad int64
	for _, m := range p.members {
		if excluded[m] {
			continue
		}
		in, load := m.inflight.Load(), m.load.Load()
		if honorBreaker && m.brk.blocked(now, in) {
			continue
		}
		if best == nil || in < bestIn || (in == bestIn && load < bestLoad) {
			best, bestIn, bestLoad = m, in, load
		}
	}
	return best
}

// ----------------------------------------------------------------- load

// probeTimeout caps each load probe.
const probeTimeout = 3 * time.Second

// prober refreshes the members' server-reported load every probeEvery.
func (p *Pool) prober() {
	defer p.wg.Done()
	t := time.NewTicker(p.probeEvery)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.probeAll()
		}
	}
}

// probeAll refreshes the load of every member that reports one and
// whose breaker is closed; a member with an open breaker keeps the zero
// its fault left.
func (p *Pool) probeAll() {
	for _, m := range p.members {
		lr, ok := m.b.(loadReporter)
		if !ok || m.brk.current() != brkClosed {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
		if st, err := lr.Stats(ctx); err == nil {
			m.load.Store(st.Inflight)
		} else {
			// A failing stats endpoint means the last value is stale;
			// forget it rather than keep routing on dead data (the
			// member itself may still serve fine).
			m.load.Store(0)
		}
		cancel()
	}
}
