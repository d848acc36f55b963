// Package cache implements the on-chip memory hierarchy: set-associative
// write-back caches with LRU replacement, MSHR-limited non-blocking misses,
// prefetch fills, and the look-ahead containment mode (dirty lines
// discarded on eviction, never written back), per Sec. III-A(i) of the
// paper.
//
// Timing model: every access returns the cycle at which its data is
// available. A missing line is installed immediately with a readyAt
// timestamp equal to the fill completion time; later accesses that arrive
// before readyAt merge with the outstanding fill (the MSHR secondary-miss
// path).
package cache

// Level is anything that can service a memory request: a Cache or a DRAM.
type Level interface {
	Access(addr uint64, write, prefetch bool, now uint64) Result
}

// Result describes the completion of a memory access.
type Result struct {
	Done  uint64 // cycle at which data is available to the requester
	Level int    // level that supplied the data: 1=L1 .. 3=L3, 4=memory
}

// Stats counts cache events. Demand and prefetch streams are separated so
// the harness can compute MPKI (demand misses only) and traffic.
type Stats struct {
	Accesses   uint64 // demand accesses
	Misses     uint64 // demand misses (includes merges with in-flight fills)
	MergedMiss uint64 // demand misses merged into an outstanding fill
	Writebacks uint64 // dirty evictions written to the next level
	Discarded  uint64 // dirty evictions discarded (look-ahead mode)
	PrefIssued uint64 // prefetch accesses reaching this level
	PrefUseful uint64 // prefetched lines later hit by demand
	PrefWasted uint64 // prefetched lines evicted unused
	MSHRStalls uint64 // accesses delayed by MSHR exhaustion
}

// Config sizes one cache level.
type Config struct {
	Name      string
	SizeBytes int
	Ways      int
	BlockBits int    // log2 block size
	Latency   uint64 // access latency in cycles
	MSHRs     int
}

type line struct {
	tag     uint64
	valid   bool
	dirty   bool
	pref    bool   // installed by a prefetch, not yet demanded
	readyAt uint64 // fill completion time
	lastUse uint64
}

// Cache is one level of the hierarchy.
type Cache struct {
	cfg      Config
	level    int // levelOf(cfg.Name), the level a hit reports
	sets     int
	setMask  uint64
	lines    []line // sets*ways, way-major within set
	next     Level
	fills    []uint64 // outstanding fill completion times (MSHR occupancy)
	useClock uint64
	dirty    int // lines that are dirty, so DropDirty skips a clean cache

	// DiscardDirty puts the cache in look-ahead containment mode: dirty
	// evictions are dropped instead of written back.
	DiscardDirty bool

	// Observer, if set, is called on every demand access with its block
	// address and hit status. Prefetchers attach here.
	Observer func(addr uint64, hit bool, now uint64)

	Stats Stats
}

// New constructs a cache over the given next level.
func New(cfg Config, next Level) *Cache {
	blockBytes := 1 << cfg.BlockBits
	sets := cfg.SizeBytes / blockBytes / cfg.Ways
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("cache: sets must be a positive power of two")
	}
	return &Cache{
		cfg:     cfg,
		level:   levelOf(cfg.Name),
		sets:    sets,
		setMask: uint64(sets - 1),
		lines:   make([]line, sets*cfg.Ways),
		next:    next,
	}
}

// Name reports the configured level name.
func (c *Cache) Name() string { return c.cfg.Name }

// BlockBits reports the log2 block size.
func (c *Cache) BlockBits() int { return c.cfg.BlockBits }

func (c *Cache) set(block uint64) []line {
	s := int(block & c.setMask)
	return c.lines[s*c.cfg.Ways : (s+1)*c.cfg.Ways]
}

// pruneFills drops completed fills from the MSHR occupancy list.
func (c *Cache) pruneFills(now uint64) {
	w := 0
	for _, t := range c.fills {
		if t > now {
			c.fills[w] = t
			w++
		}
	}
	c.fills = c.fills[:w]
}

// Access services a request. Prefetch requests fill the cache but are not
// observed and do not update demand statistics.
func (c *Cache) Access(addr uint64, write, prefetch bool, now uint64) Result {
	block := addr >> c.cfg.BlockBits
	ws := c.set(block)
	tag := block >> 0 // full block address as tag (sets folded via mask)
	c.useClock++

	if prefetch {
		c.Stats.PrefIssued++
	} else {
		c.Stats.Accesses++
	}

	// Hit path.
	for i := range ws {
		ln := &ws[i]
		if ln.valid && ln.tag == tag {
			ln.lastUse = c.useClock
			if write && !ln.dirty {
				ln.dirty = true
				c.dirty++
			}
			if !prefetch && ln.pref {
				ln.pref = false
				c.Stats.PrefUseful++
			}
			done := now + c.cfg.Latency
			hitLvl := c.level
			if ln.readyAt > now { // merge with in-flight fill
				if !prefetch {
					c.Stats.Misses++
					c.Stats.MergedMiss++
				}
				done = ln.readyAt + c.cfg.Latency
				hitLvl = c.level + 1 // data actually came from below
			}
			if c.Observer != nil && !prefetch {
				c.Observer(addr, ln.readyAt <= now, now)
			}
			return Result{Done: done, Level: hitLvl}
		}
	}

	// Miss path.
	if !prefetch {
		c.Stats.Misses++
	}
	c.pruneFills(now)
	start := now
	if len(c.fills) >= c.cfg.MSHRs {
		// All MSHRs busy: wait for the earliest to free.
		earliest := c.fills[0]
		for _, t := range c.fills[1:] {
			if t < earliest {
				earliest = t
			}
		}
		start = earliest
		c.Stats.MSHRStalls++
		c.pruneFills(start)
	}

	res := c.next.Access(addr, false, prefetch, start+c.cfg.Latency)
	fillDone := res.Done
	c.fills = append(c.fills, fillDone)

	// Choose victim: invalid first, else LRU.
	vi := 0
	for i := range ws {
		if !ws[i].valid {
			vi = i
			break
		}
		if ws[i].lastUse < ws[vi].lastUse {
			vi = i
		}
	}
	v := &ws[vi]
	if v.valid {
		if v.pref {
			c.Stats.PrefWasted++
		}
		if v.dirty {
			c.dirty--
			if c.DiscardDirty {
				c.Stats.Discarded++
			} else {
				c.Stats.Writebacks++
				c.writeback()
			}
		}
	}
	*v = line{tag: tag, valid: true, dirty: write, pref: prefetch, readyAt: fillDone, lastUse: c.useClock}
	if write {
		c.dirty++
	}

	if c.Observer != nil && !prefetch {
		c.Observer(addr, false, now)
	}
	return Result{Done: fillDone + c.cfg.Latency, Level: res.Level}
}

// writeback delivers a dirty eviction to the next level. It affects
// traffic accounting only; its latency is off the critical path.
func (c *Cache) writeback() {
	if wb, ok := c.next.(interface{ Writeback() }); ok {
		wb.Writeback()
	} else if nc, ok := c.next.(*Cache); ok {
		nc.Stats.Writebacks++ // propagate as traffic into the level below
	}
}

// Contains reports whether addr's block is present and filled (for tests).
func (c *Cache) Contains(addr uint64, now uint64) bool {
	block := addr >> c.cfg.BlockBits
	for i := range c.set(block) {
		ln := &c.set(block)[i]
		if ln.valid && ln.tag == block && ln.readyAt <= now {
			return true
		}
	}
	return false
}

// DropDirty invalidates every dirty line and leaves clean lines warm
// (used on look-ahead reboot: the paper discards the LT's dirty private
// state). A dropped line is clean as well as invalid, so it counts in
// Stats.Discarded once, not again at every later reboot. A cache with no
// dirty line returns at once: only L1D is ever written, so the LT's L2
// never walks its lines.
func (c *Cache) DropDirty() {
	if c.dirty == 0 {
		return
	}
	for i := range c.lines {
		if ln := &c.lines[i]; ln.dirty {
			ln.valid, ln.dirty = false, false
			c.Stats.Discarded++
		}
	}
	c.dirty = 0
}

// MPKI computes demand misses per kilo-instruction.
func (s *Stats) MPKI(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(s.Misses) / float64(instructions) * 1000
}

func levelOf(name string) int {
	switch name {
	case "L1I", "L1D":
		return 1
	case "L2":
		return 2
	case "L3":
		return 3
	default:
		return 4
	}
}
