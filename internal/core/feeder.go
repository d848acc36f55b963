package core

import (
	"r3dla/internal/emu"
	"r3dla/internal/pipeline"
)

// SkeletonFeeder walks a program under the active skeleton mask: masked-off
// instructions are skipped without execution ("deleted immediately upon
// fetch", Sec. III-A(iii)), forced branches follow their bias without
// evaluating the condition. The active skeleton can be switched at any
// time (recycling); control instructions are present in every version, so
// the BOQ stream stays aligned across switches.
type SkeletonFeeder struct {
	M    *emu.Machine
	skel *Skeleton

	cur  emu.DynInst
	have bool

	Budget  uint64 // stop after this many skeleton instructions (0 = off)
	fed     uint64
	Skipped uint64 // masked-off instructions stepped over
}

var _ pipeline.Feeder = (*SkeletonFeeder)(nil)

// NewSkeletonFeeder returns a feeder over m using skel.
func NewSkeletonFeeder(m *emu.Machine, skel *Skeleton) *SkeletonFeeder {
	return &SkeletonFeeder{M: m, skel: skel}
}

// SetSkeleton switches the active version (recycle controller).
func (f *SkeletonFeeder) SetSkeleton(s *Skeleton) { f.skel = s }

// Skeleton reports the active version.
func (f *SkeletonFeeder) Skeleton() *Skeleton { return f.skel }

// Peek returns the next skeleton instruction, valid until Advance.
func (f *SkeletonFeeder) Peek() (*emu.DynInst, bool) {
	if f.have {
		return &f.cur, true
	}
	if f.Budget > 0 && f.fed >= f.Budget {
		return nil, false
	}
	for !f.M.Halted {
		pc := f.M.PC
		if pc < 0 || pc >= len(f.skel.Include) {
			return nil, false
		}
		if !f.skel.Include[pc] {
			// Masked off. Control instructions are always included, so
			// falling through is always the correct flow.
			f.M.PC++
			f.Skipped++
			continue
		}
		if taken, forced := f.skel.Forced(pc); forced {
			f.M.StepForced(taken, &f.cur)
		} else {
			f.M.StepInto(&f.cur)
		}
		f.have = true
		f.fed++
		return &f.cur, true
	}
	return nil, false
}

// Advance consumes the peeked instruction.
func (f *SkeletonFeeder) Advance() { f.have = false }

// Reset drops any peeked instruction (reboot path: the machine state is
// about to be replaced).
func (f *SkeletonFeeder) Reset() { f.have = false }
