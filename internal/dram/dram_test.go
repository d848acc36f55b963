package dram

import (
	"testing"

	"r3dla/internal/cache"
)

var _ cache.Level = (*DRAM)(nil)

func TestRowHitFasterThanRowMiss(t *testing.T) {
	d := New(DefaultConfig())
	r1 := d.Access(0x0, false, false, 0) // row activate
	lat1 := r1.Done
	// Same channel (blk%2==0), same bank ((blk/2)%16==0), same row:
	// blk=32 -> addr 0x800. Row hit after the bank frees.
	r2 := d.Access(0x800, false, false, r1.Done)
	lat2 := r2.Done - r1.Done
	if lat2 >= lat1 {
		t.Fatalf("row hit latency %d not faster than activate %d", lat2, lat1)
	}
	if d.Stats.RowHits != 1 || d.Stats.Activates != 1 {
		t.Fatalf("stats: %+v", d.Stats)
	}
}

func TestRowConflictSlower(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	r1 := d.Access(0x0, false, false, 0)
	// Same channel & bank, different row: need channels*banks stride *
	// rowBytes... easier: rowBytes*channels stride maps to same bank group
	// pattern; use a huge stride and verify at least one conflict occurs.
	conflictAddr := uint64(cfg.RowBytes) * uint64(cfg.Channels) * uint64(cfg.BanksPerChan) * 8
	r2 := d.Access(conflictAddr, false, false, r1.Done)
	_ = r2
	if d.Stats.Activates < 1 {
		t.Fatalf("no activates recorded: %+v", d.Stats)
	}
}

func TestChannelBusSerializes(t *testing.T) {
	d := New(DefaultConfig())
	// Two requests to the same channel at the same time must not overlap
	// on the data bus.
	a := d.Access(0x0, false, false, 0)
	b := d.Access(0x0+0x40*2, false, false, 0) // +2 blocks: same channel (2 channels), diff bank
	if a.Done == b.Done {
		t.Fatalf("bus transfers overlapped: both done at %d", a.Done)
	}
}

func TestReadWriteCounts(t *testing.T) {
	d := New(DefaultConfig())
	d.Access(0, false, false, 0)
	d.Access(64, true, false, 0)
	d.Writeback()
	if d.Stats.Reads != 1 || d.Stats.Writes != 2 {
		t.Fatalf("reads=%d writes=%d, want 1/2", d.Stats.Reads, d.Stats.Writes)
	}
	if d.Stats.Traffic() != 3 {
		t.Fatalf("traffic = %d, want 3", d.Stats.Traffic())
	}
}

func TestLatencyMonotoneUnderLoad(t *testing.T) {
	d := New(DefaultConfig())
	var prev uint64
	for i := 0; i < 64; i++ {
		r := d.Access(uint64(i)*64, false, false, 0)
		if r.Done < prev && i > 0 {
			// Different banks may complete out of order, but the bus on a
			// channel serializes; just sanity-check nothing finishes at 0.
			if r.Done == 0 {
				t.Fatal("zero completion time")
			}
		}
		prev = r.Done
	}
	if d.Stats.BusyStalls == 0 {
		t.Fatal("64 simultaneous requests produced no queuing")
	}
}
