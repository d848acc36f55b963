package faultinject

import (
	"errors"
	"fmt"
	"sync"
	"syscall"
	"testing"
	"time"
)

// Replaying the same seed and arm order must reproduce the same outcome
// sequence at every point — the property the whole chaos harness rests on.
func TestDeterministicReplay(t *testing.T) {
	build := func() *Plane {
		p := New(42)
		p.MustArm(Policy{Point: ResultStorePut, Mode: Torn, Prob: 0.5})
		p.MustArm(Policy{Point: ResultStorePut, Mode: Corrupt, Prob: 0.3})
		p.MustArm(Policy{Point: JournalAppend, Mode: ENOSPC, Prob: 0.2, After: 3})
		p.MustArm(Policy{Point: RemoteStream, Mode: Drop, Prob: 0.4, Drop: 100})
		return p
	}
	trace := func(p *Plane) []string {
		var out []string
		for i := 0; i < 200; i++ {
			for _, pt := range []string{ResultStorePut, JournalAppend, RemoteStream} {
				o := p.At(pt)
				out = append(out, fmt.Sprintf("%s err=%v torn=%v corrupt=%v drop=%v frac=%.6f",
					pt, o.Err != nil, o.Torn, o.Corrupt, o.Drop, o.Frac))
			}
		}
		return out
	}
	a, b := trace(build()), trace(build())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at draw %d:\n  %s\n  %s", i, a[i], b[i])
		}
	}
}

// A point's stream must not shift when traffic at *other* points changes:
// cross-point interleaving is exactly what a live fleet can't control.
func TestPointStreamsIndependent(t *testing.T) {
	trace := func(noise int) []bool {
		p := New(7)
		p.MustArm(Policy{Point: ResultStoreGet, Mode: Error, Prob: 0.5})
		p.MustArm(Policy{Point: ServerRun, Mode: Error, Prob: 0.5})
		var out []bool
		for i := 0; i < 50; i++ {
			for j := 0; j < noise; j++ {
				p.At(ServerRun)
			}
			out = append(out, p.At(ResultStoreGet).Err != nil)
		}
		return out
	}
	a, b := trace(0), trace(9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("resultstore.get stream shifted with server.run traffic at arrival %d", i)
		}
	}
}

func TestNilPlaneIsDisabled(t *testing.T) {
	var p *Plane
	if o := p.At(ResultStorePut); o.Fired() {
		t.Fatalf("nil plane fired: %+v", o)
	}
	if s := p.Schedule(); s != nil {
		t.Fatalf("nil plane schedule: %v", s)
	}
	if f := p.Fires(); f != nil {
		t.Fatalf("nil plane fires: %v", f)
	}
	if err := p.Arm(Policy{Point: ResultStorePut, Mode: Error}); err == nil {
		t.Fatal("Arm on a nil plane should error")
	}
	if p.Seed() != 0 {
		t.Fatal("nil plane seed should be 0")
	}
}

func TestArmValidation(t *testing.T) {
	p := New(1)
	cases := []Policy{
		{Point: "no.such.point", Mode: Error},
		{Point: ResultStorePut, Mode: "explode"},
		{Point: ResultStorePut, Mode: Error, Prob: 1.5},
		{Point: ResultStorePut, Mode: Error, Prob: -0.1},
		{Point: ResultStorePut, Mode: Delay},        // no positive Delay
		{Point: RemoteStream, Mode: Drop, Drop: -1}, // negative cut
	}
	for _, c := range cases {
		if err := p.Arm(c); err == nil {
			t.Errorf("Arm(%+v) should have failed", c)
		}
	}
	if len(p.Schedule()) != 0 {
		t.Fatalf("rejected policies leaked into the schedule: %v", p.Schedule())
	}
}

func TestAfterAndLimit(t *testing.T) {
	p := New(3)
	p.MustArm(Policy{Point: ServerRun, Mode: Error, After: 2, Limit: 3})
	fired := 0
	for i := 0; i < 20; i++ {
		o := p.At(ServerRun)
		if o.Err != nil {
			fired++
			if i < 2 {
				t.Fatalf("fired during After window at arrival %d", i)
			}
		}
	}
	if fired != 3 {
		t.Fatalf("fired %d times, want exactly Limit=3", fired)
	}
	if got := p.Fires()[ServerRun]; got != 3 {
		t.Fatalf("Fires reports %d, want 3", got)
	}
}

// At most one policy fires per arrival, and a later policy's stream stays
// fixed whether or not an earlier sibling fired.
func TestFirstFiringPolicyWins(t *testing.T) {
	p := New(11)
	p.MustArm(Policy{Point: ResultStorePut, Mode: Torn})    // always fires
	p.MustArm(Policy{Point: ResultStorePut, Mode: Corrupt}) // shadowed
	for i := 0; i < 10; i++ {
		o := p.At(ResultStorePut)
		if !o.Torn || o.Corrupt {
			t.Fatalf("arrival %d: want torn only, got %+v", i, o)
		}
	}
	if p.Fires()[ResultStorePut] != 10 {
		t.Fatalf("fires = %d, want 10", p.Fires()[ResultStorePut])
	}
}

func TestInjectedErrorWrapping(t *testing.T) {
	p := New(5)
	sentinel := errors.New("boom")
	p.MustArm(Policy{Point: ResultStoreGet, Mode: Error, Err: sentinel, Limit: 1})
	p.MustArm(Policy{Point: ResultStorePut, Mode: ENOSPC, Limit: 1})

	o := p.At(ResultStoreGet)
	if !errors.Is(o.Err, ErrInjected) || !errors.Is(o.Err, sentinel) {
		t.Fatalf("error outcome %v should match ErrInjected and the sentinel", o.Err)
	}
	o = p.At(ResultStorePut)
	if !errors.Is(o.Err, ErrInjected) || !errors.Is(o.Err, syscall.ENOSPC) {
		t.Fatalf("enospc outcome %v should match ErrInjected and syscall.ENOSPC", o.Err)
	}
}

func TestDelayAndDropOutcomes(t *testing.T) {
	p := New(9)
	p.MustArm(Policy{Point: RemoteConnect, Mode: Delay, Delay: 5 * time.Millisecond})
	p.MustArm(Policy{Point: RemoteStream, Mode: Drop, Drop: 64})
	if o := p.At(RemoteConnect); o.Delay != 5*time.Millisecond || o.Err != nil {
		t.Fatalf("delay outcome: %+v", o)
	}
	if o := p.At(RemoteStream); !o.Drop || o.DropBytes != 64 {
		t.Fatalf("drop outcome: %+v", o)
	}
}

func TestScheduleRendersInArmOrder(t *testing.T) {
	p := New(2)
	p.MustArm(Policy{Point: ServerRun, Mode: Delay, Delay: time.Millisecond, Prob: 0.25, After: 1, Limit: 2})
	p.MustArm(Policy{Point: RemoteStream, Mode: Drop, Drop: 32})
	want := []string{
		"lab.server.run delay prob=0.25 after=1 limit=2 delay=1ms",
		"fleet.remote.stream drop prob=1 bytes=32",
	}
	got := p.Schedule()
	if len(got) != len(want) {
		t.Fatalf("schedule %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("schedule[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestPointsRegistry(t *testing.T) {
	pts := Points()
	if len(pts) != len(registry) {
		t.Fatalf("Points() returned %d entries, registry has %d", len(pts), len(registry))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i-1].Name >= pts[i].Name {
			t.Fatalf("Points() not sorted: %q before %q", pts[i-1].Name, pts[i].Name)
		}
	}
}

// Concurrent At calls must be safe (the plane sits on hot fleet paths
// under -race in the chaos soak).
func TestConcurrentAt(t *testing.T) {
	p := New(13)
	p.MustArm(Policy{Point: ServerRun, Mode: Error, Prob: 0.5})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				p.At(ServerRun)
			}
		}()
	}
	wg.Wait()
	arr := 0
	p.mu.Lock()
	for _, a := range p.points[ServerRun] {
		arr = a.arrivals
	}
	p.mu.Unlock()
	if arr != 4000 {
		t.Fatalf("arrivals = %d, want 4000", arr)
	}
}

func TestStreamDeterminism(t *testing.T) {
	a, b := Rand(17, "schedule"), Rand(17, "schedule")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() || a.Intn(10) != b.Intn(10) {
			t.Fatalf("Stream diverged at draw %d", i)
		}
	}
	c := Rand(17, "other")
	same := true
	for i := 0; i < 10; i++ {
		if Rand(17, "schedule").Float64() == c.Float64() {
			continue
		}
		same = false
	}
	if same {
		t.Fatal("differently-named streams should not coincide")
	}
}
