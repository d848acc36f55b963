package emu

import (
	"encoding/binary"
	"maps"
	"testing"
)

// Fuzz program encoding: each op is one byte (its value mod 5 picks the
// op) and its operands.
//
//	write:  op%5 < 2, word (2 bytes, big-endian), w (1 byte), value (1<<(w&3) bytes, little-endian)
//	read:   op%5 == 2, word (2 bytes)
//	fork:   op%5 == 3
//	freeze: op%5 == 4
//
// word falls on one of fuzzPages pages; bits 2-4 of w set the address's
// ignored low bits.
const fuzzPages = 4

func fuzzWrite(word uint16, v uint64) []byte {
	w := byte(3)
	switch {
	case v <= 0xff:
		w = 0
	case v <= 0xffff:
		w = 1
	case v <= 0xffff_ffff:
		w = 2
	}
	b := []byte{0, byte(word >> 8), byte(word), w}
	return binary.LittleEndian.AppendUint64(b, v)[:4+1<<w]
}

func fuzzRead(word uint16) []byte { return []byte{2, byte(word >> 8), byte(word)} }

var (
	fuzzFork   = []byte{3}
	fuzzFreeze = []byte{4}
)

// FuzzMemory runs byte-coded writes, reads, forks and freezes against a
// map model per memory. A fork freezes its parent by contract, so every
// read is checked on the current memory and on each ancestor: widening a
// page in a fork must not show through in the image it forked. A freeze
// interns the current memory's pages in one table shared by every memory
// of the run, which may then hand one page to two page slots or two
// memories; so each read checks its word's offset on every page, and a
// write to a shared page must leave all its other holders as they were.
func FuzzMemory(f *testing.F) {
	seq := func(ops ...[]byte) []byte {
		var b []byte
		for _, op := range ops {
			b = append(b, op...)
		}
		return b
	}
	f.Add(seq( // one page through every width
		fuzzWrite(0, 0xff), fuzzWrite(4095, 0x100), fuzzWrite(1, 0xffff),
		fuzzWrite(2048, 0x1_0000), fuzzWrite(7, 0xffff_ffff),
		fuzzWrite(3000, 0x1_0000_0000), fuzzWrite(9, ^uint64(0)),
		fuzzRead(0), fuzzRead(4095), fuzzRead(2048), fuzzRead(9), fuzzRead(10),
	))
	f.Add(seq( // a fork widens pages its image holds narrow
		fuzzWrite(0, 1), fuzzWrite(4096, 0x1234), fuzzWrite(8192, 0x1234_5678),
		fuzzFork,
		fuzzWrite(1, 0x1_0000_0000), fuzzWrite(4097, ^uint64(0)), fuzzWrite(8193, 0x8000_0000_0000_0000),
		fuzzRead(0), fuzzRead(1), fuzzRead(4096), fuzzRead(4097), fuzzRead(8192), fuzzRead(8193),
		fuzzFork,
		fuzzWrite(0, 0xffff), fuzzRead(0), fuzzRead(1),
	))
	f.Add(seq(fuzzWrite(0, 0), fuzzRead(0), fuzzRead(1))) // an all-zero write

	f.Add(seq( // a sparse page, read frozen, then written in place
		fuzzWrite(5, 7), fuzzWrite(700, 0xff), fuzzWrite(4095, 1), fuzzWrite(4096+64, 0x1234),
		fuzzFreeze,
		fuzzRead(5), fuzzRead(6), fuzzRead(63), fuzzRead(64), fuzzRead(700), fuzzRead(4095), fuzzRead(4096+64),
		fuzzWrite(6, 2), fuzzWrite(4096+65, 3), fuzzRead(5), fuzzRead(6), fuzzRead(4096+64),
	))
	f.Add(seq( // a page shared by two memories
		fuzzWrite(5, 7), fuzzWrite(900, 0x55),
		fuzzFreeze, fuzzFork,
		fuzzWrite(4096+5, 7), fuzzWrite(4096+900, 0x55),
		fuzzFreeze,
		fuzzWrite(4096+6, 9), fuzzWrite(5, 8),
		fuzzRead(6), fuzzRead(4096+5), fuzzRead(4096+6), fuzzRead(5),
	))
	f.Add(seq( // a fork widens a sparse page
		fuzzWrite(3, 0x12), fuzzWrite(4000, 0x34), fuzzWrite(8192+1, 0xabcd),
		fuzzFreeze, fuzzFork,
		fuzzWrite(9, ^uint64(0)), fuzzWrite(8192+2, 0x1_0000_0000),
		fuzzRead(3), fuzzRead(9), fuzzRead(4000), fuzzRead(8192+1), fuzzRead(8192+2),
	))
	f.Add(seq( // a write on the frozen memory itself, beside a page it shares
		fuzzWrite(5, 7), fuzzFork,
		fuzzWrite(4096+5, 7), fuzzWrite(8192+5, 7),
		fuzzFreeze,
		fuzzWrite(4096+6, 9), fuzzWrite(4096+5, 1),
		fuzzRead(5), fuzzRead(6), fuzzRead(8192+5), fuzzRead(8192+6),
		fuzzFork, fuzzWrite(8192+5, 0x1_0000), fuzzRead(4096+5),
	))
	f.Fuzz(func(t *testing.T, prog []byte) {
		mems := []*Memory{NewMemory()} // ancestors first, the current memory last
		models := []map[uint64]uint64{{}}
		var table PageTable
		check := func(addr uint64) {
			for pg := range uint64(fuzzPages) {
				a := pg<<(pageShift+3) | addr&(pageWords<<3-1)
				for i, m := range mems {
					if got, want := m.Read(a), models[i][a>>3]; got != want {
						t.Fatalf("memory %d of %d reads %#x at %#x, want %#x", i, len(mems), got, a, want)
					}
				}
			}
		}
		addr := func(b []byte, low byte) uint64 {
			word := uint64(binary.BigEndian.Uint16(b)) % (fuzzPages * pageWords)
			return word<<3 | uint64(low>>2&7)
		}
		for len(prog) > 0 {
			op := prog[0] % 5
			prog = prog[1:]
			switch {
			case op < 2:
				if len(prog) < 3 || len(prog) < 3+1<<(prog[2]&3) {
					return
				}
				n := 1 << (prog[2] & 3)
				var buf [8]byte
				copy(buf[:], prog[3:3+n])
				a, v := addr(prog, prog[2]), binary.LittleEndian.Uint64(buf[:])
				prog = prog[3+n:]
				mems[len(mems)-1].Write(a, v)
				models[len(models)-1][a>>3] = v
				check(a)
			case op == 2:
				if len(prog) < 2 {
					return
				}
				check(addr(prog, 0))
				prog = prog[2:]
			case op == 3 && len(mems) < 8:
				mems = append(mems, mems[len(mems)-1].Fork())
				models = append(models, maps.Clone(models[len(models)-1]))
			case op == 4:
				m := mems[len(mems)-1]
				m.Freeze(&table)
				for idx, p := range m.pages {
					if p.owner != nil {
						t.Fatalf("page %d is still owned after a freeze", idx)
					}
				}
			}
		}
		for i, m := range mems {
			listed, nonzero := 0, 0
			m.NonzeroWords(func(addr, v uint64) {
				listed++
				if want := models[i][addr>>3]; v != want {
					t.Fatalf("memory %d of %d lists %#x at %#x, want %#x", i, len(mems), v, addr, want)
				}
			})
			for w, v := range models[i] {
				check(w << 3)
				if v != 0 {
					nonzero++
				}
			}
			if listed != nonzero {
				t.Fatalf("memory %d of %d lists %d nonzero words, want %d", i, len(mems), listed, nonzero)
			}
		}
	})
}
