package main

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"r3dla/internal/lab"
)

func TestSameSeedSameInputs(t *testing.T) {
	n := len(workloadNames()) * len(gridConfigs())
	if n != 175 {
		t.Fatalf("grid has %d cells, want 25 workloads x 7 configurations = 175", n)
	}
	if a, b := newRand(7, 1).Perm(n), newRand(7, 1).Perm(n); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two grid orders")
	}
	if reflect.DeepEqual(newRand(7, 1).Perm(n), newRand(8, 1).Perm(n)) {
		t.Fatal("seeds 7 and 8 gave the same grid order")
	}

	hot := hotSet()
	h1, m1, err := serveSchedule(7, 2, hot)
	if err != nil {
		t.Fatal(err)
	}
	h2, m2, err := serveSchedule(7, 2, hot)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h1, h2) || !reflect.DeepEqual(m1, m2) {
		t.Fatal("the same seed gave two serve schedules")
	}
	if len(h1) != 2*hitRate || len(m1) != 2*missRate {
		t.Fatalf("2s schedule has %d hits and %d misses, want %d and %d", len(h1), len(m1), 2*hitRate, 2*missRate)
	}
	h3, m3, err := serveSchedule(8, 2, hot)
	if err != nil {
		t.Fatal(err)
	}
	// The seed draws the interactive stream; the batch stream is the same
	// for every seed.
	if reflect.DeepEqual(h1, h3) {
		t.Fatal("seeds 7 and 8 gave the same interactive schedule")
	}
	if !reflect.DeepEqual(m1, m3) {
		t.Fatal("seeds 7 and 8 gave different batch schedules")
	}

	// Misses are fresh: distinct keys, none of them in the hot set.
	keys := map[string]bool{}
	for _, r := range hot {
		keys[runKey(t, r)] = true
	}
	for _, m := range m1 {
		k := runKey(t, m.req)
		if keys[k] {
			t.Fatalf("miss %s repeats a hot or earlier key", k)
		}
		keys[k] = true
	}
}

func runKey(t *testing.T, r lab.RunRequest) string {
	t.Helper()
	cfg, err := r.Config.Config()
	if err != nil {
		t.Fatal(err)
	}
	return lab.RunKey(r.Workload, cfg, r.Budget)
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for n := 0; n <= 300; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		rng.Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		for _, q := range []float64{0.5, 0.9, 0.99} {
			v, ok := percentile(xs, q)
			beyond := 0
			for _, x := range xs {
				if x > v {
					beyond++
				}
			}
			if ok && beyond < minTail {
				t.Fatalf("n=%d: p%g = %v has %d samples beyond it", n, 100*q, v, beyond)
			}
			// The helper refuses only what the sample cannot support.
			if !ok && n > 0 && float64(n)*(1-q) >= minTail+1 {
				t.Fatalf("n=%d: p%g refused with %g samples beyond it", n, 100*q, float64(n)*(1-q))
			}
		}
	}
	if _, ok := percentile([]float64{1, 2, 3}, 0.9); ok {
		t.Fatal("p90 of 3 samples reported")
	}
	if v, ok := percentile(make([]float64, 100), 0.9); !ok || v != 0 {
		t.Fatalf("p90 of 100 zeros = %v, %v", v, ok)
	}
}

func TestOpenLoopCountsFromDue(t *testing.T) {
	const work = 20 * time.Millisecond
	dues := []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	start := time.Now()
	latency, late := openLoop(start, dues, func(int) { time.Sleep(work) })
	for i, d := range dues {
		// Each call waits for every earlier one: it is sent i*work after
		// the schedule starts, and its latency runs from its due time.
		if wantLate := time.Duration(i)*work - d; late[i] < wantLate {
			t.Errorf("call %d sent %v late, want at least %v", i, late[i], wantLate)
		}
		if wantLat := time.Duration(i+1)*work - d; latency[i] < wantLat {
			t.Errorf("call %d latency %v, want at least %v (from its due time)", i, latency[i], wantLat)
		}
		if latency[i] < late[i]+work {
			t.Errorf("call %d latency %v excludes its %v of lateness", i, latency[i], late[i])
		}
	}
}

func TestDigestStable(t *testing.T) {
	of := func(records ...string) string {
		d := newDigest()
		for _, r := range records {
			d.add([]byte(r))
		}
		return d.String()
	}
	// Pinned: a digest printed by one build must match the next build's.
	if got, want := of("reproduce", "{\"ipc\":1.5}\n"), "10a33c11ed999371cde69542c1dafdfb"; got != want {
		t.Fatalf("digest = %s, want %s", got, want)
	}
	if of("ab", "c") == of("a", "bc") {
		t.Fatal("record boundaries do not change the digest")
	}
	if of("a", "b") == of("b", "a") {
		t.Fatal("record order does not change the digest")
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{parent: noSpan, name: "dse.Explore", start: 0, end: 100},
		{parent: 0, name: "tier", start: 10, end: 30},
		{parent: 0, name: "tier", start: 20, end: 40},  // overlaps the previous child
		{parent: 0, name: "cell", start: 90, end: 120}, // runs past the parent
		{parent: noSpan, name: "other", start: 40, end: 60},
	}
	got := selfTimes(spans, "dse.Explore")
	// Covered: [10,40] and [90,100] = 40 of 100 ns.
	if want := 60e-6; len(got) != 1 || got[0] != want {
		t.Fatalf("self time = %v ms, want [%v]", got, want)
	}
}

func TestHDMedianMovesSmoothly(t *testing.T) {
	if got := hdMedian([]float64{4, 4, 4, 4}); math.Abs(got-4) > 1e-9 {
		t.Fatalf("median of a constant sample = %v", got)
	}
	sym := []float64{9, 1, 3, 0, 7, 5, 2, 8, 6, 4, 10}
	if got := hdMedian(sym); math.Abs(got-5) > 1e-9 {
		t.Fatalf("median of 0..10 = %v, want 5 by symmetry", got)
	}
	// 30 samples with a gap in the middle: moving the 15th across the gap
	// moves the sample median by half the gap, the estimate far less.
	xs := make([]float64, 30)
	for i := range xs {
		xs[i] = float64(i)
		if i >= 15 {
			xs[i] += 20
		}
	}
	before, sampleBefore := hdMedian(xs), median(xs)
	xs[14] = 36
	after, sampleAfter := hdMedian(xs), median(xs)
	jump := sampleAfter - sampleBefore
	if jump < 10 {
		t.Fatalf("sample median moved %v, the test needs a jump", jump)
	}
	if move := after - before; move <= 0 || move > jump/3 {
		t.Fatalf("estimate moved %v where the sample median jumped %v", move, jump)
	}
}
