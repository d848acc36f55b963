package emu

import (
	"encoding/binary"
	"maps"
	"testing"
)

// Fuzz program encoding: each op is one byte (its low two bits pick the
// op) and its operands.
//
//	write: op&3 < 2, word (2 bytes, big-endian), w (1 byte), value (1<<(w&3) bytes, little-endian)
//	read:  op&3 == 2, word (2 bytes)
//	fork:  op&3 == 3
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

var fuzzFork = []byte{3}

// FuzzMemory runs byte-coded writes, reads and forks against a map model
// per memory. A fork freezes its parent, so every read is checked on the
// current memory and on each ancestor: widening a page in a fork must not
// show through in the image it forked.
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
	f.Fuzz(func(t *testing.T, prog []byte) {
		mems := []*Memory{NewMemory()} // ancestors first, the current memory last
		models := []map[uint64]uint64{{}}
		check := func(addr uint64) {
			for i, m := range mems {
				if got, want := m.Read(addr), models[i][addr>>3]; got != want {
					t.Fatalf("memory %d of %d reads %#x at %#x, want %#x", i, len(mems), got, addr, want)
				}
			}
		}
		addr := func(b []byte, low byte) uint64 {
			word := uint64(binary.BigEndian.Uint16(b)) % (fuzzPages * pageWords)
			return word<<3 | uint64(low>>2&7)
		}
		for len(prog) > 0 {
			op := prog[0] & 3
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
			case len(mems) < 8:
				mems = append(mems, mems[len(mems)-1].Fork())
				models = append(models, maps.Clone(models[len(models)-1]))
			}
		}
		for _, model := range models {
			for w := range model {
				check(w << 3)
			}
		}
	})
}
