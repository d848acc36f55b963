// Package memsys wires the memory hierarchy of Table I: per-core private
// L1I/L1D/L2 over a shared L3 and DRAM, with optional prefetchers (BOP at
// L2, stride at L1) attached through the pipeline's load-access hook.
package memsys

import (
	"r3dla/internal/cache"
	"r3dla/internal/dram"
	"r3dla/internal/emu"
	"r3dla/internal/prefetch"
)

// Shared is the portion of the memory system shared by all cores.
type Shared struct {
	L3   *cache.Cache
	DRAM *dram.DRAM
}

// NewShared builds the shared L3 + DRAM (Table I: 2MB, 16-way, 12ns L3).
func NewShared() *Shared {
	d := dram.New(dram.DefaultConfig())
	l3 := cache.New(cache.Config{
		Name: "L3", SizeBytes: 2 << 20, Ways: 16, BlockBits: 6,
		Latency: 36, MSHRs: 64,
	}, d)
	return &Shared{L3: l3, DRAM: d}
}

// Private is one core's private cache stack.
type Private struct {
	L1I, L1D, L2 *cache.Cache
	Shared       *Shared

	BOP    *prefetch.BOP
	Stride *prefetch.Stride

	strideBuf []uint64
}

// Stats is a snapshot of one private stack's cache counters.
type Stats struct {
	L1I, L1D, L2 cache.Stats
}

// Stats snapshots the stack's counters.
func (p *Private) Stats() Stats {
	return Stats{L1I: p.L1I.Stats, L1D: p.L1D.Stats, L2: p.L2.Stats}
}

// Options selects the prefetchers and containment mode of a private stack.
type Options struct {
	WithBOP      bool // Best-Offset prefetcher at L2 (baseline default)
	WithStride   bool // tuned stride prefetcher at L1 (Sec. IV-C1 baseline)
	DiscardDirty bool // look-ahead containment: private dirty lines dropped
}

// NewPrivate builds a private L1I/L1D/L2 stack over shared (Table I:
// 32KB+32KB L1, 1ns; 256KB 8-way L2, 3ns).
func NewPrivate(shared *Shared, opt Options) *Private {
	l2 := cache.New(cache.Config{
		Name: "L2", SizeBytes: 256 << 10, Ways: 8, BlockBits: 6,
		Latency: 9, MSHRs: 32,
	}, shared.L3)
	l1i := cache.New(cache.Config{
		Name: "L1I", SizeBytes: 32 << 10, Ways: 4, BlockBits: 6,
		Latency: 3, MSHRs: 8,
	}, l2)
	l1d := cache.New(cache.Config{
		Name: "L1D", SizeBytes: 32 << 10, Ways: 4, BlockBits: 6,
		Latency: 3, MSHRs: 32,
	}, l2)
	p := &Private{L1I: l1i, L1D: l1d, L2: l2, Shared: shared}
	if opt.DiscardDirty {
		l1d.DiscardDirty = true
		l2.DiscardDirty = true
	}
	if opt.WithBOP {
		p.BOP = prefetch.NewBOP(256)
	}
	if opt.WithStride {
		p.Stride = prefetch.NewStride(32, 4)
	}
	return p
}

// LoadHook returns the pipeline OnLoadAccess hook that drives the attached
// prefetchers. Chain it with any additional hook the caller needs.
func (p *Private) LoadHook() func(d *emu.DynInst, level int, done, now uint64) {
	blockBits := p.L2.BlockBits()
	return func(d *emu.DynInst, level int, done, now uint64) {
		if p.Stride != nil {
			p.strideBuf = p.Stride.Observe(d.PC, d.EA, p.strideBuf[:0])
			for _, a := range p.strideBuf {
				p.L1D.Access(a, false, true, now)
			}
		}
		if p.BOP != nil && level >= 2 {
			// The access reached L2: BOP observes the L2 block stream.
			block := d.EA >> blockBits
			p.BOP.OnFill(block, false, done)
			if pref, ok := p.BOP.Observe(block, now); ok {
				res := p.L2.Access(pref<<blockBits, false, true, now)
				p.BOP.OnFill(pref, true, res.Done)
			}
		}
	}
}
