package branch

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// refPredictor is the predictor as it was before Predict kept each
// table's index and tag for allocate: refFold XORs in every chunk of a
// history, and refAllocate recomputes index and tag. It embeds a
// Predictor for its state and its unchanged helpers (bimodal, history
// and aging), so the two compare field by field.
type refPredictor struct {
	Predictor
	providerIdx uint32
}

func refFold(h uint64, n, bits int) uint32 {
	var f uint32
	mask := uint64(1)<<uint(bits) - 1
	for n > 0 {
		take := bits
		if n < take {
			take = n
		}
		f ^= uint32(h & mask)
		h >>= uint(take)
		n -= take
	}
	return f & uint32(mask)
}

func (p *refPredictor) refIndex(pc, table int) uint32 {
	hl := p.cfg.HistLengths[table]
	h := refFold(p.hist, hl, p.cfg.TableBits)
	ph := refFold(p.phist, min(hl, 16), p.cfg.TableBits)
	return (uint32(pc) ^ uint32(pc>>4) ^ h ^ (ph << 1)) & (1<<p.cfg.TableBits - 1)
}

func (p *refPredictor) refTag(pc, table int) uint32 {
	hl := p.cfg.HistLengths[table]
	h := refFold(p.hist, hl, p.cfg.TagBits)
	return (uint32(pc) ^ (uint32(pc) >> 7) ^ (h << 1)) & (1<<p.cfg.TagBits - 1)
}

func (p *refPredictor) refPredict(pc int) bool {
	p.Lookups++
	p.lastPC = pc
	p.provider = -1
	p.altPred = p.bimodal[p.bimodalIdx(pc)] >= 0
	p.providerPred = p.altPred
	for t := len(p.tables) - 1; t >= 0; t-- {
		idx := p.refIndex(pc, t)
		e := &p.tables[t][idx]
		if e.tag == p.refTag(pc, t) {
			if p.provider < 0 {
				p.provider = t
				p.providerIdx = idx
				p.providerPred = e.ctr >= 0
			} else {
				p.altPred = e.ctr >= 0
				break
			}
		}
	}
	if p.provider >= 0 {
		return p.providerPred
	}
	return p.altPred
}

func (p *refPredictor) refUpdate(pc int, taken bool) {
	if pc != p.lastPC {
		p.updateBimodal(pc, taken)
		p.pushHistory(pc, taken)
		return
	}
	correct := false
	if p.provider >= 0 {
		correct = p.providerPred == taken
		e := &p.tables[p.provider][p.providerIdx]
		e.ctr = satInc(e.ctr, taken, 3)
		if p.providerPred != p.altPred {
			if correct {
				if e.useful < 3 {
					e.useful++
				}
			} else if e.useful > 0 {
				e.useful--
			}
		}
	} else {
		correct = p.altPred == taken
		p.updateBimodal(pc, taken)
	}
	if !correct {
		p.Mispred++
		p.refAllocate(pc, taken)
	}
	p.clock++
	if p.cfg.UsefulResetK > 0 && p.clock%uint64(p.cfg.UsefulResetK) == 0 {
		p.ageUseful()
	}
	p.pushHistory(pc, taken)
}

func (p *refPredictor) refAllocate(pc int, taken bool) {
	start := p.provider + 1
	for t := start; t < len(p.tables); t++ {
		idx := p.refIndex(pc, t)
		e := &p.tables[t][idx]
		if e.useful == 0 {
			e.tag = p.refTag(pc, t)
			e.useful = 0
			if taken {
				e.ctr = 0
			} else {
				e.ctr = -1
			}
			return
		}
	}
	for t := start; t < len(p.tables); t++ {
		e := &p.tables[t][p.refIndex(pc, t)]
		if e.useful > 0 {
			e.useful--
		}
	}
}

// TestPredictorMatchesReference drives the predictor beside refPredictor
// over a long seeded stream of 400 static branches: biased, periodic,
// correlated with the last 64 outcomes, and random, so every table
// allocates and decays, with an out-of-order update now and then. Every
// prediction, the misprediction count and the final tables must match.
// A second configuration ages the useful counters often.
func TestPredictorMatchesReference(t *testing.T) {
	aging := DefaultConfig()
	aging.UsefulResetK = 1 << 10
	for name, cfg := range map[string]Config{"default": DefaultConfig(), "aging": aging} {
		p, ref := NewPredictor(cfg), &refPredictor{Predictor: *NewPredictor(cfg)}
		rng := rand.New(rand.NewSource(11))
		var outcomes uint64 // the stream's last 64 outcomes, newest in bit 0
		var runs [400]int
		for i := range 300_000 {
			b := rng.Intn(len(runs))
			pc := 0x1000 + 4*b
			var taken bool
			switch b % 4 {
			case 0:
				taken = rng.Intn(10) != 0
			case 1:
				runs[b]++
				taken = runs[b]%(b%11+2) != 0
			case 2:
				taken = bits.OnesCount64(outcomes&(uint64(b)*0x9e3779b97f4a7c15))%2 == 0
			default:
				taken = rng.Intn(2) == 0
			}
			if got, want := p.Predict(pc), ref.refPredict(pc); got != want {
				t.Fatalf("%s: branch %d at pc %#x predicted %v, reference %v", name, i, pc, got, want)
			}
			if i%97 == 0 {
				pc += 4 // out of order: trains the bimodal table only
			}
			p.Update(pc, taken)
			ref.refUpdate(pc, taken)
			outcomes = outcomes<<1 | b2u(taken)
		}
		if p.Mispred != ref.Mispred || p.Lookups != ref.Lookups {
			t.Fatalf("%s: %d mispredictions in %d lookups, reference %d in %d", name, p.Mispred, p.Lookups, ref.Mispred, ref.Lookups)
		}
		if p.Mispred < p.Lookups/10 {
			t.Fatalf("%s: only %d mispredictions in %d lookups: the stream allocates too little", name, p.Mispred, p.Lookups)
		}
		if p.hist != ref.hist || p.phist != ref.phist || !slices.Equal(p.bimodal, ref.bimodal) {
			t.Fatalf("%s: history or bimodal table differs from the reference", name)
		}
		for tb := range p.tables {
			for i, e := range p.tables[tb] {
				if e != ref.tables[tb][i] {
					t.Fatalf("%s: tagged table %d entry %d is %+v, reference %+v", name, tb, i, e, ref.tables[tb][i])
				}
			}
		}
	}
}
