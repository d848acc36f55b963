package prefetch

import "testing"

func TestBOPOffsetsAre52(t *testing.T) {
	if len(bopOffsets) != 52 {
		t.Fatalf("offset list has %d entries, want 52", len(bopOffsets))
	}
	for _, d := range bopOffsets {
		m := d
		for _, f := range []int{2, 3, 5} {
			for m%f == 0 {
				m /= f
			}
		}
		if m != 1 {
			t.Fatalf("offset %d not of form 2^i 3^j 5^k", d)
		}
	}
}

func TestBOPLearnsConstantOffset(t *testing.T) {
	b := NewBOP(256)
	// Stream with stride 4 blocks, one access per 10 cycles, fills take
	// 100 cycles (so a timely offset must cover >= 10 accesses ahead...
	// here any multiple of 4 present in RR scores).
	var block uint64 = 1000
	now := uint64(0)
	for i := 0; i < 20000; i++ {
		b.OnFill(block, false, now+100)
		b.Observe(block, now)
		block += 4
		now += 10
	}
	if b.BestOffset()%4 != 0 {
		t.Fatalf("BOP learned offset %d; want a multiple of the stride 4", b.BestOffset())
	}
	pref, ok := b.Observe(block, now)
	if !ok {
		t.Fatal("BOP not issuing prefetches after training")
	}
	if (pref-block)%4 != 0 {
		t.Fatalf("prefetch %d not stride-aligned from %d", pref, block)
	}
}

func TestBOPTurnsOffForRandomStream(t *testing.T) {
	b := NewBOP(256)
	// An adversarial stream with no reuse at any offset: large jumps.
	// BOP starts enabled (offset 1) but must switch itself off once the
	// first learning phase finds no scoring offset.
	var block uint64 = 5
	now := uint64(0)
	for i := 0; i < 2000; i++ { // > one full learning phase (16*52)
		b.OnFill(block, false, now+50)
		b.Observe(block, now)
		block += 997 // prime > 256, never matches RR at tested offsets
		now += 10
	}
	after := b.Issued
	for i := 0; i < 3000; i++ {
		b.OnFill(block, false, now+50)
		b.Observe(block, now)
		block += 997
		now += 10
	}
	if b.Issued != after {
		t.Fatalf("BOP kept prefetching an unprefetchable stream: %d new", b.Issued-after)
	}
}

func TestBOPTimeliness(t *testing.T) {
	// Fills that never complete must not train the RR table: after the
	// initial (enabled-by-default) phase, BOP must turn itself off.
	b := NewBOP(256)
	var block uint64 = 1000
	now := uint64(0)
	for i := 0; i < 2000; i++ {
		b.OnFill(block, false, now+1<<40) // effectively never completes
		b.Observe(block, now)
		block += 4
		now += 10
	}
	after := b.Issued
	for i := 0; i < 18000; i++ {
		b.OnFill(block, false, now+1<<40)
		b.Observe(block, now)
		block += 4
		now += 10
	}
	if b.Issued != after {
		t.Fatalf("BOP trained on incomplete fills: issued %d more", b.Issued-after)
	}
}

func TestStrideLearnsAndIssuesDegree(t *testing.T) {
	s := NewStride(32, 4)
	var out []uint64
	addr := uint64(0x1000)
	for i := 0; i < 10; i++ {
		out = s.Observe(0x40, addr, out[:0])
		addr += 64
	}
	if len(out) != 4 {
		t.Fatalf("degree-4 prefetcher issued %d", len(out))
	}
	for i, p := range out {
		want := addr - 64 + uint64(64*(i+1))
		if p != want {
			t.Fatalf("prefetch[%d] = %#x, want %#x", i, p, want)
		}
	}
}

func TestStrideIgnoresIrregular(t *testing.T) {
	s := NewStride(32, 4)
	var out []uint64
	addrs := []uint64{10, 500, 30, 9000, 77, 123456}
	for _, a := range addrs {
		out = s.Observe(0x80, a, out[:0])
	}
	if len(out) != 0 {
		t.Fatalf("stride prefetcher fired on irregular stream: %v", out)
	}
}

func TestStrideSeparatePCs(t *testing.T) {
	s := NewStride(32, 2)
	var outA, outB []uint64
	a, b := uint64(0), uint64(1<<20)
	for i := 0; i < 8; i++ {
		outA = s.Observe(1, a, outA[:0])
		outB = s.Observe(2, b, outB[:0])
		a += 8
		b += 16
	}
	if len(outA) != 2 || len(outB) != 2 {
		t.Fatalf("per-PC streams not tracked: %d/%d", len(outA), len(outB))
	}
	if outA[0]-a+8 != 8 && outA[0] != a+8-8+8 {
		t.Logf("outA=%v a=%d", outA, a)
	}
	if outB[0] != b-16+16 {
		t.Fatalf("stream B prefetch %d, want %d", outB[0], b)
	}
}
