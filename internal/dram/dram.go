// Package dram models main memory timing and energy in the style of the
// paper's DDR3-1600 configuration (Table I): channels, ranks and banks
// with open-row policy, bank busy windows, and per-channel data-bus
// serialization. Latencies are expressed in CPU cycles at the 3 GHz
// operating point.
package dram

import "r3dla/internal/cache"

// Config describes the memory system. All timing fields are CPU cycles.
type Config struct {
	Channels     int
	BanksPerChan int // ranks*banks folded into one dimension
	RowBytes     int
	TRCD         uint64 // activate-to-read
	TRP          uint64 // precharge
	TCAS         uint64 // read latency from open row
	TBurst       uint64 // data transfer occupancy per 64B block
	CtrlLatency  uint64 // controller queuing/decode overhead
}

// DefaultConfig mirrors Table I (DDR3 1600MHz, 2 channels, 2 ranks/channel,
// 8 banks/rank, tRCD=13.75ns, tRP=13.75ns) at 3 GHz (1ns = 3 cycles).
func DefaultConfig() Config {
	return Config{
		Channels:     2,
		BanksPerChan: 16, // 2 ranks x 8 banks
		RowBytes:     8192,
		TRCD:         41, // 13.75ns
		TRP:          41,
		TCAS:         41,
		TBurst:       15, // 64B at ~12.8GB/s
		CtrlLatency:  24,
	}
}

// Stats counts memory events for traffic and energy reporting.
type Stats struct {
	Reads      uint64
	Writes     uint64
	Activates  uint64
	RowHits    uint64
	BusyStalls uint64 // requests delayed by bank/bus occupancy
}

// Traffic reports total blocks moved to/from memory.
func (s *Stats) Traffic() uint64 { return s.Reads + s.Writes }

type bank struct {
	openRow   int64
	nextReady uint64
}

type channel struct {
	banks   []bank
	busFree uint64
}

// DRAM is the memory device; it implements cache.Level.
type DRAM struct {
	cfg   Config
	chans []channel
	Stats Stats
}

// New returns a DRAM with all rows closed.
func New(cfg Config) *DRAM {
	d := &DRAM{cfg: cfg, chans: make([]channel, cfg.Channels)}
	for i := range d.chans {
		d.chans[i].banks = make([]bank, cfg.BanksPerChan)
		for b := range d.chans[i].banks {
			d.chans[i].banks[b].openRow = -1
		}
	}
	return d
}

// Access services a memory request and returns its completion time.
// The write flag marks writebacks (timing handled the same; counted
// separately). Result.Level is always 4.
func (d *DRAM) Access(addr uint64, write, prefetch bool, now uint64) cache.Result {
	// Address mapping: block-interleave channels, then banks, then rows.
	blk := addr >> 6
	ci := int(blk) % d.cfg.Channels
	bi := int(blk/uint64(d.cfg.Channels)) % d.cfg.BanksPerChan
	row := int64(addr / uint64(d.cfg.RowBytes) / uint64(d.cfg.Channels))

	ch := &d.chans[ci]
	bk := &ch.banks[bi]

	start := now + d.cfg.CtrlLatency
	if bk.nextReady > start {
		start = bk.nextReady
		d.Stats.BusyStalls++
	}

	var lat uint64
	switch {
	case bk.openRow == row:
		lat = d.cfg.TCAS
		d.Stats.RowHits++
	case bk.openRow < 0:
		lat = d.cfg.TRCD + d.cfg.TCAS
		d.Stats.Activates++
	default:
		lat = d.cfg.TRP + d.cfg.TRCD + d.cfg.TCAS
		d.Stats.Activates++
	}
	bk.openRow = row

	dataStart := start + lat
	if ch.busFree > dataStart {
		dataStart = ch.busFree
		d.Stats.BusyStalls++
	}
	done := dataStart + d.cfg.TBurst
	ch.busFree = done
	bk.nextReady = done

	if write {
		d.Stats.Writes++
	} else {
		d.Stats.Reads++
	}
	return cache.Result{Done: done, Level: 4}
}

// Writeback counts a dirty eviction arriving from the cache above. The
// data movement occupies bandwidth lazily: we charge it to the statistics
// (traffic, energy) without blocking the read path.
func (d *DRAM) Writeback() { d.Stats.Writes++ }
