package core

import (
	"r3dla/internal/cache"
	"r3dla/internal/emu"
	"r3dla/internal/pipeline"
)

// bFetch is the B-Fetch prefetcher of the Fig. 9-b comparison
// (branch-predictor-directed prefetching). Its table maps branch PCs to
// up to 4 downstream loads with their strides, and each branch
// prediction prefetches the branch's loads into the L1D (the lookahead
// the real design computes along the predicted path). It wraps the
// core's TAGE source to see predictions, and NewSystemWithMemory
// composes its training into the core's load hook.
type bFetch struct {
	dir        *pipeline.TageSource
	l1d        *cache.Cache
	table      map[int]*[4]bfetchEntry
	lastBranch int
}

// bfetchEntry tracks one load PC observed downstream of a branch.
type bfetchEntry struct {
	loadPC   int32
	lastAddr uint64
	stride   int64
	conf     int8
	valid    bool
}

func newBFetch(dir *pipeline.TageSource, l1d *cache.Cache) *bFetch {
	return &bFetch{dir: dir, l1d: l1d, table: make(map[int]*[4]bfetchEntry)}
}

// PredictAndTrain predicts through the wrapped source, then prefetches
// along the predicted path: each confident load of the branch, two
// strides past the address it last touched.
func (b *bFetch) PredictAndTrain(pc int, actual bool, now uint64) (bool, bool) {
	pred, ok := b.dir.PredictAndTrain(pc, actual, now)
	b.lastBranch = pc
	if ents, hit := b.table[pc]; hit {
		for i := range ents {
			e := &ents[i]
			if e.valid && e.conf >= 2 && e.stride != 0 {
				b.l1d.Access(uint64(int64(e.lastAddr)+2*e.stride), false, true, now)
			}
		}
	}
	return pred, ok
}

// train associates load d with the most recent branch: a known load
// updates its stride and confidence, a new one takes the first free slot
// (or slot 0).
func (b *bFetch) train(d *emu.DynInst) {
	ents := b.table[b.lastBranch]
	if ents == nil {
		ents = new([4]bfetchEntry)
		b.table[b.lastBranch] = ents
	}
	pc := int32(d.PC)
	for i := range ents {
		if e := &ents[i]; e.valid && e.loadPC == pc {
			switch stride := int64(d.EA) - int64(e.lastAddr); {
			case stride == e.stride:
				e.conf = min(e.conf+1, 3)
			case e.conf > 0:
				e.conf--
			default:
				e.stride = stride
			}
			e.lastAddr = d.EA
			return
		}
	}
	free := 0
	for i := range ents {
		if !ents[i].valid {
			free = i
			break
		}
	}
	ents[free] = bfetchEntry{loadPC: pc, lastAddr: d.EA, valid: true}
}
