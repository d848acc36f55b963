package exp

import (
	"encoding/binary"
	"hash/fnv"

	"r3dla/internal/isa"
)

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
