package cache

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

// flatMem is a fixed-latency backing store for tests.
type flatMem struct {
	lat      uint64
	accesses uint64
	wb       uint64
}

func (f *flatMem) Access(addr uint64, write, prefetch bool, now uint64) Result {
	f.accesses++
	return Result{Done: now + f.lat, Level: 4}
}
func (f *flatMem) Writeback() { f.wb++ }

func testCache(mshrs int) (*Cache, *flatMem) {
	m := &flatMem{lat: 100}
	c := New(Config{Name: "L1D", SizeBytes: 1024, Ways: 2, BlockBits: 6, Latency: 3, MSHRs: mshrs}, m)
	return c, m
}

func TestColdMissThenHit(t *testing.T) {
	c, m := testCache(8)
	r := c.Access(0x1000, false, false, 0)
	if r.Level != 4 {
		t.Fatalf("cold access level = %d, want 4", r.Level)
	}
	if r.Done < 100 {
		t.Fatalf("miss done = %d, want >= 100", r.Done)
	}
	fill := r.Done
	r2 := c.Access(0x1000, false, false, fill+1)
	if r2.Level != 1 {
		t.Fatalf("hit level = %d, want 1", r2.Level)
	}
	if r2.Done != fill+1+3 {
		t.Fatalf("hit done = %d, want %d", r2.Done, fill+1+3)
	}
	if m.accesses != 1 {
		t.Fatalf("backing accesses = %d, want 1", m.accesses)
	}
	if c.Stats.Misses != 1 || c.Stats.Accesses != 2 {
		t.Fatalf("stats misses=%d accesses=%d", c.Stats.Misses, c.Stats.Accesses)
	}
}

func TestInFlightMerge(t *testing.T) {
	c, m := testCache(8)
	r1 := c.Access(0x2000, false, false, 0)
	// Second access to the same block before fill completes: merges.
	r2 := c.Access(0x2000, false, false, 5)
	if m.accesses != 1 {
		t.Fatalf("merge issued a second fill: %d", m.accesses)
	}
	if r2.Done < r1.Done {
		t.Fatalf("merged access completed before the fill: %d < %d", r2.Done, r1.Done)
	}
	if c.Stats.MergedMiss != 1 {
		t.Fatalf("merged miss not counted: %+v", c.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	c, _ := testCache(8)
	// 2 ways, 8 sets of 64B blocks. Fill both ways of set 0, then a third
	// block in set 0 must evict the least recently used (the first).
	setStride := uint64(64 * 8) // sets * blocksize
	a, b2, c3 := uint64(0), setStride, 2*setStride
	c.Access(a, false, false, 0)
	c.Access(b2, false, false, 1000)
	c.Access(a, false, false, 2000) // touch a: b2 becomes LRU
	c.Access(c3, false, false, 3000)
	if !c.Contains(a, 5000) {
		t.Fatal("recently used line evicted")
	}
	if c.Contains(b2, 5000) {
		t.Fatal("LRU line survived")
	}
	if !c.Contains(c3, 5000) {
		t.Fatal("newly installed line missing")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c, m := testCache(8)
	setStride := uint64(64 * 8)
	c.Access(0, true, false, 0) // dirty
	c.Access(setStride, false, false, 1000)
	c.Access(2*setStride, false, false, 2000) // evicts dirty line 0
	if m.wb != 1 {
		t.Fatalf("writebacks = %d, want 1", m.wb)
	}
	if c.Stats.Writebacks != 1 {
		t.Fatalf("stats writebacks = %d, want 1", c.Stats.Writebacks)
	}
}

func TestDiscardDirtyMode(t *testing.T) {
	c, m := testCache(8)
	c.DiscardDirty = true
	setStride := uint64(64 * 8)
	c.Access(0, true, false, 0)
	c.Access(setStride, false, false, 1000)
	c.Access(2*setStride, false, false, 2000)
	if m.wb != 0 {
		t.Fatalf("look-ahead mode wrote back %d lines", m.wb)
	}
	if c.Stats.Discarded != 1 {
		t.Fatalf("discarded = %d, want 1", c.Stats.Discarded)
	}
}

func TestMSHRLimitDelays(t *testing.T) {
	c, _ := testCache(1)
	r1 := c.Access(0x0000, false, false, 0)
	r2 := c.Access(0x4000, false, false, 1) // different block, MSHR busy
	if r2.Done < r1.Done {
		t.Fatalf("second miss (%d) finished before MSHR freed (%d)", r2.Done, r1.Done)
	}
	if c.Stats.MSHRStalls != 1 {
		t.Fatalf("MSHR stalls = %d, want 1", c.Stats.MSHRStalls)
	}
}

func TestPrefetchLifecycle(t *testing.T) {
	c, _ := testCache(8)
	c.Access(0x8000, false, true, 0) // prefetch fill
	if c.Stats.PrefIssued != 1 {
		t.Fatal("prefetch not counted")
	}
	c.Access(0x8000, false, false, 500) // demand hit on prefetched line
	if c.Stats.PrefUseful != 1 {
		t.Fatalf("useful prefetch not counted: %+v", c.Stats)
	}
	// A wasted prefetch: filled then evicted unused.
	setStride := uint64(64 * 8)
	c.Access(0x10000, false, true, 1000)
	c.Access(0x10000+setStride, false, false, 2000)
	c.Access(0x10000+2*setStride, false, false, 3000)
	if c.Stats.PrefWasted == 0 {
		t.Fatal("wasted prefetch not counted")
	}
}

func TestObserverSeesDemandOnly(t *testing.T) {
	c, _ := testCache(8)
	var observed int
	var hits int
	c.Observer = func(addr uint64, hit bool, now uint64) {
		observed++
		if hit {
			hits++
		}
	}
	c.Access(0x100, false, false, 0)
	c.Access(0x100, false, false, 1000)
	c.Access(0x9999, false, true, 2000) // prefetch: unobserved
	if observed != 2 {
		t.Fatalf("observer saw %d events, want 2", observed)
	}
	if hits != 1 {
		t.Fatalf("observer hits = %d, want 1", hits)
	}
}

func TestDropDirty(t *testing.T) {
	c, _ := testCache(8)
	c.Access(0x40, true, false, 0)
	c.Access(0x80, false, false, 10)
	c.DropDirty()
	if c.Contains(0x40, 5000) {
		t.Fatal("dirty line survived DropDirty")
	}
	if !c.Contains(0x80, 5000) {
		t.Fatal("clean line dropped")
	}
}

// A line DropDirty drops is gone, so a later reboot has nothing more to
// discard: one dirty line over three reboots counts once.
func TestDropDirtyCountsEachLineOnce(t *testing.T) {
	c, _ := testCache(8)
	c.Access(0x40, true, false, 0)
	for range 3 {
		c.DropDirty()
	}
	if c.Stats.Discarded != 1 {
		t.Fatalf("discarded = %d after three reboots over one dirty line, want 1", c.Stats.Discarded)
	}
}

// dropAll is DropDirty as it was before the cache counted its dirty
// lines: a walk of every line on every call.
func dropAll(c *Cache) {
	for i := range c.lines {
		if ln := &c.lines[i]; ln.dirty {
			ln.valid, ln.dirty = false, false
			c.Stats.Discarded++
		}
	}
}

// TestDropDirtyMatchesFullWalk runs one seeded stream of reads, writes,
// prefetches and reboots through two look-ahead caches: one reboots with
// DropDirty, which skips a cache it counts clean, the other with the full
// walk. Their lines and Stats must agree after every reboot, and the
// count must match the dirty lines after every access: a count that ran
// high would only cost walks, and one that ran low would skip a drop.
func TestDropDirtyMatchesFullWalk(t *testing.T) {
	c, _ := testCache(4)
	ref, _ := testCache(4)
	c.DiscardDirty, ref.DiscardDirty = true, true
	rng := rand.New(rand.NewPCG(1, 2))
	drops, skipped, now := 0, 0, uint64(0)
	for i := range 200_000 {
		addr := rng.Uint64N(64) << 6 // 64 blocks over the cache's 16 lines
		write := rng.IntN(4) == 0
		prefetch := !write && rng.IntN(8) == 0
		c.Access(addr, write, prefetch, now)
		ref.Access(addr, write, prefetch, now)
		now += rng.Uint64N(40)
		dirty := 0
		for _, ln := range c.lines {
			if ln.dirty {
				dirty++
			}
		}
		if c.dirty != dirty {
			t.Fatalf("access %d: the cache counts %d dirty lines, holds %d", i, c.dirty, dirty)
		}
		if rng.IntN(16) != 0 {
			continue
		}
		if dirty == 0 {
			skipped++
		}
		c.DropDirty()
		dropAll(ref)
		drops++
		if !slices.Equal(c.lines, ref.lines) || c.Stats != ref.Stats {
			t.Fatalf("access %d, reboot %d: DropDirty left %+v, the full walk %+v", i, drops, c.Stats, ref.Stats)
		}
	}
	if skipped == 0 || skipped == drops {
		t.Fatalf("%d of %d reboots found the cache clean, want some but not all", skipped, drops)
	}
}

func TestMPKI(t *testing.T) {
	s := Stats{Misses: 5}
	if got := s.MPKI(1000); got != 5 {
		t.Fatalf("MPKI = %f, want 5", got)
	}
	if s.MPKI(0) != 0 {
		t.Fatal("MPKI with zero instructions should be 0")
	}
}

// Property: completion time never precedes request time + level latency,
// and monotonically increasing request times keep completions sane.
func TestCompletionNeverEarly(t *testing.T) {
	f := func(addrs []uint16) bool {
		c, _ := testCache(4)
		now := uint64(0)
		for _, a := range addrs {
			r := c.Access(uint64(a)<<4, a%3 == 0, false, now)
			if r.Done < now+3 {
				return false
			}
			now += 2
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a cache never holds two valid lines with the same block tag in
// one set.
func TestNoDuplicateLines(t *testing.T) {
	f := func(addrs []uint16) bool {
		c, _ := testCache(4)
		now := uint64(0)
		for _, a := range addrs {
			c.Access(uint64(a)<<6, false, a%2 == 0, now)
			now += 5
		}
		for s := 0; s < c.sets; s++ {
			seen := map[uint64]bool{}
			for w := 0; w < c.cfg.Ways; w++ {
				ln := c.lines[s*c.cfg.Ways+w]
				if ln.valid {
					if seen[ln.tag] {
						return false
					}
					seen[ln.tag] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
