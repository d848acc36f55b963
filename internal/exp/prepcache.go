package exp

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"

	"r3dla/internal/core"
	"r3dla/internal/isa"
	"r3dla/internal/resultstore"
)

// PrepFormat is the fingerprint to pass to resultstore.Open for a prep
// cache (Context.Cache). Bump it whenever prepEntry's encoding or the
// meaning of a Profile or Set changes: every existing entry then reads
// as a miss and regenerates.
const PrepFormat uint64 = 1

// prepEntry is the gob body of a prep-cache entry. Set.Prog is stripped
// before encoding and reattached on load: programs are large, and the
// entry's key already carries their fingerprint.
type prepEntry struct {
	Prof *core.Profile
	Set  *core.Set
}

// ProgramFingerprint hashes the instruction streams of the given
// programs; folded into a cache key, it ties the entry to the exact
// workload builds that produced it.
func ProgramFingerprint(progs ...*isa.Program) uint64 {
	h := fnv.New64a()
	var buf [28]byte
	for _, p := range progs {
		binary.LittleEndian.PutUint64(buf[:8], uint64(p.Entry))
		binary.LittleEndian.PutUint64(buf[8:16], uint64(len(p.Insts)))
		h.Write(buf[:16])
		for i := range p.Insts {
			in := &p.Insts[i]
			buf[0] = byte(in.Op)
			buf[1] = in.Rd
			buf[2] = in.Rs1
			buf[3] = in.Rs2
			binary.LittleEndian.PutUint64(buf[4:12], uint64(in.Imm))
			binary.LittleEndian.PutUint32(buf[12:16], uint32(in.Targ))
			h.Write(buf[:16])
		}
	}
	return h.Sum64()
}

// prepKey names a workload's prep-cache entry: the training budget and
// the fingerprint of both programs, so a changed workload builder misses.
func prepKey(name string, trainBudget uint64, train, eval *isa.Program) string {
	return fmt.Sprintf("%s@%d#%016x", name, trainBudget, ProgramFingerprint(train, eval))
}

// loadPrep reads the entry under key and reattaches eval as the Set's
// program. Any problem — missing or damaged entry, undecodable body — is
// ok=false, and the caller regenerates.
func loadPrep(st *resultstore.Store, key string, eval *isa.Program) (*core.Profile, *core.Set, bool) {
	raw, ok := st.Get(key)
	if !ok {
		return nil, nil, false
	}
	var e prepEntry
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&e); err != nil || e.Prof == nil || e.Set == nil {
		return nil, nil, false
	}
	e.Set.Prog = eval
	return e.Prof, e.Set, true
}

// storePrep writes (prof, set) under key, overwriting any previous entry.
func storePrep(st *resultstore.Store, key string, prof *core.Profile, set *core.Set) error {
	stripped := *set
	stripped.Prog = nil
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(prepEntry{Prof: prof, Set: &stripped}); err != nil {
		return fmt.Errorf("exp: encode prep entry %s: %w", key, err)
	}
	return st.Put(key, body.Bytes())
}
