// Package faultinject is the deterministic fault plane: a registry of
// named fault points threaded through every layer that touches disk or
// network, driven by policies whose random choices all derive from one
// seed. The same seed always arms the same schedule and draws the same
// per-point decision sequence, so any chaos run is replayable — failures
// become a reproducible *input* to the system, the way the dse samplers
// made search reproducible under a seed.
//
// The plane is strictly opt-in and free when absent: components hold a
// nil *Plane in production, every hook is guarded by that nil check, and
// no fault-injection code runs on any hot path. A non-nil plane is armed
// with Policies (error, ENOSPC, delay, torn write, silent corruption,
// stream cut) at registered points; the component at each point calls At
// and applies whatever Outcome fires.
//
// Determinism model: each armed policy owns a private splitmix64 stream
// seeded from (plane seed, point name, arm index). The n-th arrival at a
// point therefore draws the same numbers in every run with that seed —
// "the 3rd resultstore put tears" is a property of the seed, independent
// of how goroutines interleave across *different* points. (Arrival order
// at a single point still follows scheduling; the chaos harness asserts
// seed-deterministic schedules and invariants, not wall-clock timing.)
package faultinject

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"syscall"
	"time"
)

// ErrInjected marks every error the plane fabricates; errors.Is(err,
// ErrInjected) distinguishes injected faults from organic ones in tests
// and invariant checks.
var ErrInjected = errors.New("faultinject: injected fault")

// The registered fault points. Each names the single call site in the
// component that consults the plane; Arm rejects unregistered names so a
// typo'd schedule fails loudly instead of silently arming nothing.
const (
	// ResultStoreGet fires on a result store's Get: an error
	// reads as a miss, a delay models slow disk.
	ResultStoreGet = "resultstore.get"
	// ResultStorePut fires on a result store's Put: torn simulates
	// a crash mid-write (a truncated frame at the final path), corrupt
	// flips one byte silently, enospc/error fail the write.
	ResultStorePut = "resultstore.put"
	// JournalAppend fires on each sweep-journal line append: torn writes
	// a line prefix with no terminator, corrupt flips a byte in the
	// line; both are silent (the damage surfaces only on resume, where
	// quarantine must catch it). error/enospc fail the append.
	JournalAppend = "sweep.journal.append"
	// JournalLoad fires on journal load at resume (error, delay).
	JournalLoad = "sweep.journal.load"
	// RemoteConnect fires before each fleet.Remote HTTP round trip: an
	// error models a refused/reset connection, a delay a latency spike.
	RemoteConnect = "fleet.remote.connect"
	// RemoteStream fires on each response: drop cuts the body after N
	// bytes (mid-stream truncation), a delay stalls the first byte.
	RemoteStream = "fleet.remote.stream"
	// ServerRun fires at the top of the lab server's simulation
	// handlers: an error sheds the request with 503 (a shed burst), a
	// delay models a slow response.
	ServerRun = "lab.server.run"
)

// PointInfo describes one registered fault point.
type PointInfo struct {
	Name string
	Doc  string
}

var registry = map[string]string{
	ResultStoreGet: "result-store read (error = miss, delay)",
	ResultStorePut: "result-store write (torn, corrupt, enospc, error, delay)",
	JournalAppend:  "sweep-journal line append (torn, corrupt, enospc, error, delay)",
	JournalLoad:    "sweep-journal load on resume (error, delay)",
	RemoteConnect:  "fleet HTTP round trip (error = connect fault, delay = latency spike)",
	RemoteStream:   "fleet HTTP response body (drop = mid-stream cut, delay)",
	ServerRun:      "lab server simulation handler (error = 503 shed burst, delay = slow response)",
}

// Points lists every registered fault point, sorted by name (the chaos
// report and DESIGN.md derive their tables from it).
func Points() []PointInfo {
	out := make([]PointInfo, 0, len(registry))
	for name, doc := range registry {
		out = append(out, PointInfo{Name: name, Doc: doc})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Mode selects what an armed policy does when it fires.
type Mode string

const (
	// Error fails the operation with Policy.Err (ErrInjected by default).
	Error Mode = "error"
	// ENOSPC fails the operation with a wrapped syscall.ENOSPC.
	ENOSPC Mode = "enospc"
	// Delay stalls the operation by Policy.Delay, then proceeds.
	Delay Mode = "delay"
	// Torn truncates a write at a seed-chosen fraction and reports a
	// crash — the file at the final path holds a partial frame, exactly
	// what a power loss before fsync used to leave behind.
	Torn Mode = "torn"
	// Corrupt flips one seed-chosen byte of a write and reports success
	// — silent media corruption the reader's checksum must catch.
	Corrupt Mode = "corrupt"
	// Drop cuts a stream after Policy.Drop bytes — a connection dying
	// mid-response.
	Drop Mode = "drop"
)

// Policy arms one behavior at one point.
type Policy struct {
	Point string        // registered point name
	Mode  Mode          // what firing does
	Prob  float64       // per-arrival fire probability (0 means 1)
	After int           // arrivals passed through untouched before eligibility
	Limit int           // max fires (0 = unlimited)
	Delay time.Duration // Delay mode: how long to stall
	Drop  int64         // Drop mode: bytes to pass before the cut
	Err   error         // Error mode: override for the injected error
}

// String renders the policy deterministically for schedules and logs.
func (p Policy) String() string {
	prob := p.Prob
	if prob == 0 {
		prob = 1
	}
	s := fmt.Sprintf("%s %s prob=%g", p.Point, p.Mode, prob)
	if p.After > 0 {
		s += fmt.Sprintf(" after=%d", p.After)
	}
	if p.Limit > 0 {
		s += fmt.Sprintf(" limit=%d", p.Limit)
	}
	switch p.Mode {
	case Delay:
		s += fmt.Sprintf(" delay=%s", p.Delay)
	case Drop:
		s += fmt.Sprintf(" bytes=%d", p.Drop)
	}
	return s
}

// Outcome is what one arrival at a point drew. The zero Outcome means
// "no fault"; Frac carries the policy stream's position draw so torn and
// corrupt faults damage a seed-chosen location instead of a fixed one.
type Outcome struct {
	Err     error         // fail the operation with this error
	Delay   time.Duration // stall before proceeding
	Torn    bool          // truncate the write, report a crash
	Corrupt bool          // flip one byte, report success
	Drop    bool          // cut the stream after DropBytes
	Frac    float64       // position draw in [0,1) for torn/corrupt
	// DropBytes is the byte count for Drop outcomes.
	DropBytes int64
}

// Fired reports whether any fault was drawn.
func (o Outcome) Fired() bool {
	return o.Err != nil || o.Delay > 0 || o.Torn || o.Corrupt || o.Drop
}

// injected wraps a fabricated error so it matches both ErrInjected and
// the underlying sentinel (syscall.ENOSPC, a caller-provided error).
type injected struct {
	point string
	err   error
}

func (e *injected) Error() string   { return "faultinject: " + e.point + ": " + e.err.Error() }
func (e *injected) Unwrap() []error { return []error{ErrInjected, e.err} }

// armed is one policy plus its private deterministic stream and counters.
type armed struct {
	pol      Policy
	rng      uint64 // splitmix64 state
	arrivals int
	fires    int
}

// Plane is one seeded fault-injection domain: a set of armed policies
// over the registered points. The zero value is not usable; call New. A
// nil *Plane is the disabled plane — every method is nil-safe, so
// components hold a nil pointer in production and pay one nil check.
// Arm the plane fully before sharing it; At is safe for concurrent use.
type Plane struct {
	seed int64

	mu     sync.Mutex
	points map[string][]*armed
	order  []*armed // arm order, for Schedule
}

// New builds an empty plane whose every future draw derives from seed.
func New(seed int64) *Plane {
	return &Plane{seed: seed, points: make(map[string][]*armed)}
}

// Seed reports the plane's seed (0 for a nil plane).
func (p *Plane) Seed() int64 {
	if p == nil {
		return 0
	}
	return p.seed
}

// Arm adds one policy. Policies at the same point are consulted in arm
// order and at most one fires per arrival. The policy's random stream is
// fixed by (seed, point, arm index) at this moment, so a schedule armed
// in a deterministic order replays exactly.
func (p *Plane) Arm(pol Policy) error {
	if p == nil {
		return errors.New("faultinject: Arm on a nil plane")
	}
	if _, ok := registry[pol.Point]; !ok {
		return fmt.Errorf("faultinject: unregistered point %q", pol.Point)
	}
	switch pol.Mode {
	case Error, ENOSPC, Delay, Torn, Corrupt, Drop:
	default:
		return fmt.Errorf("faultinject: unknown mode %q", pol.Mode)
	}
	if pol.Prob < 0 || pol.Prob > 1 {
		return fmt.Errorf("faultinject: probability %g outside [0,1]", pol.Prob)
	}
	if pol.Mode == Delay && pol.Delay <= 0 {
		return fmt.Errorf("faultinject: delay mode needs a positive Delay")
	}
	if pol.Mode == Drop && pol.Drop < 0 {
		return fmt.Errorf("faultinject: negative drop byte count")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	h := fnv.New64a()
	h.Write([]byte(pol.Point))
	a := &armed{pol: pol, rng: uint64(p.seed) ^ h.Sum64() ^ (uint64(len(p.order)+1) * 0x9e3779b97f4a7c15)}
	p.points[pol.Point] = append(p.points[pol.Point], a)
	p.order = append(p.order, a)
	return nil
}

// MustArm is Arm for statically-known-good policies (the chaos schedule
// builder); it panics on the programming errors Arm rejects.
func (p *Plane) MustArm(pol Policy) {
	if err := p.Arm(pol); err != nil {
		panic(err)
	}
}

// At records one arrival at a point and returns the outcome that fired,
// if any. Nil-safe: a nil plane always returns the zero Outcome — this
// call (behind the caller's own nil check) is the entire disabled-path
// cost of the fault plane.
func (p *Plane) At(point string) Outcome {
	if p == nil {
		return Outcome{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var out Outcome
	fired := false
	for _, a := range p.points[point] {
		a.arrivals++
		if fired || a.arrivals <= a.pol.After {
			continue
		}
		if a.pol.Limit > 0 && a.fires >= a.pol.Limit {
			continue
		}
		// Always draw, so a policy's stream position depends only on its
		// eligible-arrival count, never on sibling policies' outcomes.
		u := f64(&a.rng)
		prob := a.pol.Prob
		if prob == 0 {
			prob = 1
		}
		if u >= prob {
			continue
		}
		a.fires++
		fired = true
		out = a.outcome(point)
	}
	return out
}

// outcome materializes one firing of a.pol.
func (a *armed) outcome(point string) Outcome {
	frac := f64(&a.rng)
	switch a.pol.Mode {
	case Error:
		err := a.pol.Err
		if err == nil {
			err = errors.New("fault")
		}
		return Outcome{Err: &injected{point, err}, Frac: frac}
	case ENOSPC:
		return Outcome{Err: &injected{point, syscall.ENOSPC}, Frac: frac}
	case Delay:
		return Outcome{Delay: a.pol.Delay, Frac: frac}
	case Torn:
		return Outcome{Torn: true, Frac: frac}
	case Corrupt:
		return Outcome{Corrupt: true, Frac: frac}
	default: // Drop
		return Outcome{Drop: true, DropBytes: a.pol.Drop, Frac: frac}
	}
}

// Schedule renders the armed policies in arm order — the deterministic
// half of a chaos run's report.
func (p *Plane) Schedule() []string {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, len(p.order))
	for i, a := range p.order {
		out[i] = a.pol.String()
	}
	return out
}

// Fires reports how many faults actually fired per point (observability;
// unlike the schedule, counts depend on traffic interleaving and are not
// part of the replayable report).
func (p *Plane) Fires() map[string]int {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int)
	for point, as := range p.points {
		for _, a := range as {
			out[point] += a.fires
		}
	}
	return out
}

// splitmix64: tiny, seedable, and stable, so every draw replays from
// its seed.
func next(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func f64(s *uint64) float64 { return float64(next(s)>>11) / (1 << 53) }

// Rand returns a fresh deterministic stream derived from (seed, name) —
// the harness uses it for schedule construction so every choice in a
// chaos run traces back to the one seed.
func Rand(seed int64, name string) *Stream {
	h := fnv.New64a()
	h.Write([]byte(name))
	return &Stream{state: uint64(seed) ^ h.Sum64()}
}

// Stream is a deterministic random stream (not safe for concurrent use).
type Stream struct{ state uint64 }

// Float64 draws from [0,1).
func (s *Stream) Float64() float64 { return f64(&s.state) }

// Intn draws from [0,n) (n must be positive).
func (s *Stream) Intn(n int) int { return int(next(&s.state) % uint64(n)) }
