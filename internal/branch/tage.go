// Package branch implements the control-flow prediction substrate: a
// TAGE-style conditional direction predictor (a reduced Tage-SC-L, matching
// the paper's predictor class), a branch target buffer, and a return
// address stack.
package branch

// Config sizes the predictor. DefaultConfig approximates the storage class
// of the 256-kbit Tage-SC-L configuration named in the paper's Table I.
type Config struct {
	BimodalBits  int   // log2 entries of the bimodal base table
	TableBits    int   // log2 entries of each tagged table
	TagBits      int   // tag width in each tagged table
	HistLengths  []int // geometric history lengths, shortest first
	UsefulResetK int   // clock period for useful-counter aging
}

// DefaultConfig returns the predictor configuration used everywhere unless
// an experiment overrides it.
func DefaultConfig() Config {
	return Config{
		BimodalBits:  14,
		TableBits:    10,
		TagBits:      11,
		HistLengths:  []int{5, 11, 22, 44, 88, 176},
		UsefulResetK: 1 << 18,
	}
}

type tageEntry struct {
	tag    uint32
	ctr    int8 // 3-bit signed counter, taken if >= 0
	useful uint8
}

// Predictor is a TAGE-lite global-history direction predictor.
type Predictor struct {
	cfg     Config
	bimodal []int8 // 2-bit counters, taken if >= 0
	tables  [][]tageEntry
	hist    uint64 // global history (newest outcome in bit 0)
	phist   uint64 // path history
	clock   uint64

	// prediction bookkeeping between Predict and Update
	lastPC       int
	provider     int // table index of provider, -1 = bimodal
	altPred      bool
	providerPred bool
	// idxs and tags hold each tagged table's index and tag for lastPC, as
	// Predict computed them. Predict looks at every table above the
	// provider, which are the ones allocate claims from, and the history
	// does not move until Update has allocated, so allocate reuses them.
	idxs, tags []uint32

	// stats
	Lookups uint64
	Mispred uint64
}

// NewPredictor returns a predictor with the given configuration.
func NewPredictor(cfg Config) *Predictor {
	p := &Predictor{cfg: cfg}
	p.bimodal = make([]int8, 1<<cfg.BimodalBits)
	p.tables = make([][]tageEntry, len(cfg.HistLengths))
	p.idxs = make([]uint32, len(cfg.HistLengths))
	p.tags = make([]uint32, len(cfg.HistLengths))
	for i := range p.tables {
		p.tables[i] = make([]tageEntry, 1<<cfg.TableBits)
	}
	return p
}

// fold compresses the low n bits of h into bits, XORing in one chunk of
// bits at a time; the last chunk is a whole one too, even where fewer
// than bits of the n remain. It stops once the rest of h is zero, where
// every further chunk would XOR in nothing: h holds 64 bits, so a
// history longer than that ends there.
func fold(h uint64, n, bits int) uint32 {
	var f uint32
	mask := uint64(1)<<uint(bits) - 1
	for ; n > 0 && h != 0; n -= bits {
		f ^= uint32(h & mask)
		h >>= uint(bits)
	}
	return f
}

func (p *Predictor) index(pc, table int) uint32 {
	hl := p.cfg.HistLengths[table]
	h := fold(p.hist, hl, p.cfg.TableBits)
	ph := fold(p.phist, min(hl, 16), p.cfg.TableBits)
	return (uint32(pc) ^ uint32(pc>>4) ^ h ^ (ph << 1)) & (1<<p.cfg.TableBits - 1)
}

func (p *Predictor) tag(pc, table int) uint32 {
	hl := p.cfg.HistLengths[table]
	h := fold(p.hist, hl, p.cfg.TagBits)
	return (uint32(pc) ^ (uint32(pc) >> 7) ^ (h << 1)) & (1<<p.cfg.TagBits - 1)
}

func (p *Predictor) bimodalIdx(pc int) int {
	return pc & (1<<p.cfg.BimodalBits - 1)
}

// Predict returns the predicted direction for the conditional branch at pc.
// The caller must invoke Update with the actual outcome before the next
// Predict (standard in-order predict/update discipline of trace-driven
// simulation).
func (p *Predictor) Predict(pc int) bool {
	p.Lookups++
	p.lastPC = pc
	p.provider = -1
	p.altPred = p.bimodal[p.bimodalIdx(pc)] >= 0
	p.providerPred = p.altPred
	for t := len(p.tables) - 1; t >= 0; t-- {
		p.idxs[t], p.tags[t] = p.index(pc, t), p.tag(pc, t)
		e := &p.tables[t][p.idxs[t]]
		if e.tag == p.tags[t] {
			if p.provider < 0 {
				p.provider = t
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

// Update trains the predictor with the actual outcome of the branch most
// recently passed to Predict.
func (p *Predictor) Update(pc int, taken bool) {
	if pc != p.lastPC {
		// Out-of-order update (e.g. after a squash); retrain bimodal only.
		p.updateBimodal(pc, taken)
		p.pushHistory(pc, taken)
		return
	}
	correct := false
	if p.provider >= 0 {
		correct = p.providerPred == taken
		e := &p.tables[p.provider][p.idxs[p.provider]]
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
		p.allocate(taken)
	}
	p.clock++
	if p.cfg.UsefulResetK > 0 && p.clock%uint64(p.cfg.UsefulResetK) == 0 {
		p.ageUseful()
	}
	p.pushHistory(pc, taken)
}

func (p *Predictor) updateBimodal(pc int, taken bool) {
	i := p.bimodalIdx(pc)
	p.bimodal[i] = satInc(p.bimodal[i], taken, 2)
}

// allocate claims an entry in a longer-history table after a misprediction.
func (p *Predictor) allocate(taken bool) {
	start := p.provider + 1
	for t := start; t < len(p.tables); t++ {
		e := &p.tables[t][p.idxs[t]]
		if e.useful == 0 {
			e.tag = p.tags[t]
			e.useful = 0
			if taken {
				e.ctr = 0
			} else {
				e.ctr = -1
			}
			return
		}
	}
	// No free entry: decay usefulness along the path.
	for t := start; t < len(p.tables); t++ {
		e := &p.tables[t][p.idxs[t]]
		if e.useful > 0 {
			e.useful--
		}
	}
}

func (p *Predictor) ageUseful() {
	for _, tbl := range p.tables {
		for i := range tbl {
			tbl[i].useful >>= 1
		}
	}
}

func (p *Predictor) pushHistory(pc int, taken bool) {
	p.hist = p.hist<<1 | b2u(taken)
	p.phist = p.phist<<1 | uint64(pc&1)
}

// MispredictRate reports the fraction of mispredicted lookups so far.
func (p *Predictor) MispredictRate() float64 {
	if p.Lookups == 0 {
		return 0
	}
	return float64(p.Mispred) / float64(p.Lookups)
}

// satInc saturating-increments (taken) or -decrements counter ctr of the
// given bit width (counters range [-2^(w-1), 2^(w-1)-1]).
func satInc(ctr int8, up bool, width int) int8 {
	hi := int8(1<<(width-1) - 1)
	lo := int8(-(1 << (width - 1)))
	if up {
		if ctr < hi {
			return ctr + 1
		}
		return ctr
	}
	if ctr > lo {
		return ctr - 1
	}
	return ctr
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
