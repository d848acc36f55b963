package pipeline

import (
	"slices"
	"testing"

	"r3dla/internal/emu"
	"r3dla/internal/isa"
)

// issueEvent is one OnIssue callback with the cycle it fired in.
type issueEvent struct {
	now, dispatchCycle, execDone uint64
}

// recordIssues runs the core to completion and returns each issued
// instruction's event by static PC (every test program here runs each
// instruction once).
func recordIssues(t *testing.T, c *Core) map[int]issueEvent {
	t.Helper()
	got := map[int]issueEvent{}
	c.Hooks.OnIssue = func(d *emu.DynInst, dispatchCycle, execDone uint64) {
		got[d.PC] = issueEvent{c.Now(), dispatchCycle, execDone}
	}
	if m := c.Run(0); m.Deadlocked {
		t.Fatal("deadlock")
	}
	return got
}

// wrongFor predicts only the instructions writing the given registers,
// and predicts them wrong.
type wrongFor []uint8

func (w wrongFor) Lookup(d *emu.DynInst) (uint64, bool) {
	return d.Val + 1, slices.Contains(w, d.In.Rd)
}

func (wrongFor) OnOutcome(*emu.DynInst, bool) {}

// A consumer of a skip-validated producer is ready at the producer's
// dispatchCycle+1, even while that producer's own operand still waits on
// a DRAM load: skip validation means nobody waits for the check. The
// two dispatch in the same cycle, so when the consumer looks at its
// producer the select has not yet marked the producer done.
func TestSkipValidatedProducerWakesConsumerAtDispatch(t *testing.T) {
	b := isa.NewBuilder("skipwake")
	b.Li(2, 1<<20)
	b.Li(13, 1)                    // filler: r5 and r6 dispatch in one cycle
	ld := b.Ld(3, 2, 0)            // misses to DRAM
	wait := b.I(isa.ADDI, 4, 3, 1) // predicted wrong: waits on the load
	b.I(isa.ADDI, 5, 4, 1)         // r4 validated at decode: skip-validated
	use := b.R(isa.MUL, 6, 5, 5)   // consumer of the skip-validated r5
	b.Halt()
	c := newTestCore(b.Program(), 300, func(cfg *Config) { cfg.SkipValidation = true })
	// r5's own prediction is wrong too, so only its skip makes it ready.
	c.Vals = wrongFor{4, 5}
	got := recordIssues(t, c)

	if c.M.Skipped != 1 {
		t.Fatalf("skipped %d instructions, want 1 (the r5 producer)", c.M.Skipped)
	}
	load, waiter, consumer := got[ld], got[wait], got[use]
	if load.execDone < load.now+300 {
		t.Fatalf("load done at %d after issuing at %d: want a DRAM miss", load.execDone, load.now)
	}
	if waiter.now < load.execDone {
		t.Fatalf("wrongly predicted r4 issued at %d, before the load it reads completed at %d", waiter.now, load.execDone)
	}
	if consumer.now != consumer.dispatchCycle+1 {
		t.Fatalf("consumer of the skip-validated producer issued at %d, want its dispatchCycle+1 = %d (load done at %d)",
			consumer.now, consumer.dispatchCycle+1, load.execDone)
	}
}

// A load behind two older stores to the same word forwards from the
// younger one. The younger store's data waits on a divide chain, so it
// has not issued when the load does: the load completes at now+2.
// Forwarding from the older store, long issued, would complete at now+1,
// and a cache access at the cold line would take the DRAM latency.
func TestLoadForwardsFromYoungerOfTwoStores(t *testing.T) {
	b := isa.NewBuilder("twostores")
	b.Li(2, 1<<20)
	b.Li(10, 7)
	b.Li(13, 1)
	older := b.St(10, 2, 0)
	b.R(isa.DIV, 11, 10, 10)
	b.R(isa.DIV, 11, 11, 10)
	younger := b.St(11, 2, 0)
	b.R(isa.MUL, 12, 2, 13) // r12 = r2, three cycles late
	ld := b.Ld(3, 12, 0)
	b.Halt()
	c := newTestCore(b.Program(), 300, nil)
	got := recordIssues(t, c)

	first, second, load := got[older], got[younger], got[ld]
	if first.execDone >= load.now {
		t.Fatalf("older store done at %d, not before the load issues at %d: the test cannot tell the stores apart", first.execDone, load.now)
	}
	if second.now <= load.now {
		t.Fatalf("younger store issued at %d, not after the load at %d", second.now, load.now)
	}
	if load.execDone != load.now+2 {
		t.Fatalf("load issued at %d done at %d, want %d (forwarded from the younger store)", load.now, load.execDone, load.now+2)
	}
	if c.M.Loads != 1 || c.M.LoadLevelHits != [5]uint64{} {
		t.Fatalf("forwarded load reached the cache: %d loads, level hits %v", c.M.Loads, c.M.LoadLevelHits)
	}
}

// eachTimingCycle steps every timing-golden case to the end, flushing
// where the case does, and calls check after every cycle.
func eachTimingCycle(t *testing.T, check func(name string, c *Core)) {
	t.Helper()
	for _, tc := range timingCases() {
		cfg := tc.cfg
		c := newTestCore(randomProgram(tc.seed), tc.memLat, func(x *Config) { *x = cfg })
		c.Vals = tc.vals
		for !c.Done() {
			c.Tick()
			if tc.flushEvery != 0 && c.M.Cycles%tc.flushEvery == 0 {
				c.Flush()
			}
			if c.M.Cycles > 10_000_000 {
				t.Fatalf("%s: deadlock", tc.name)
			}
			check(tc.name, c)
		}
	}
}

// TestIssueWakeIsExact steps every timing-golden case and checks, after
// each cycle whose next issue call returns at once, that the walk it
// skips would have done nothing: no waiting entry skips validation (the
// walk completes those), and none is ready before the wake. The goldens
// see a late wake only where it moves a counter; this sees it in the
// cycle it happens.
func TestIssueWakeIsExact(t *testing.T) {
	var asleep uint64
	eachTimingCycle(t, func(name string, c *Core) {
		if c.now >= c.issueWake {
			return
		}
		asleep++
		for _, slot := range c.waitQ {
			e := &c.rob[slot]
			if e.skipVal {
				t.Fatalf("%s, cycle %d: issue sleeps until %d over skip-validation entry %d",
					name, c.now, c.issueWake, e.d.Seq)
			}
			if e.readyAt < c.issueWake {
				t.Fatalf("%s, cycle %d: issue sleeps until %d, but entry %d is ready at %d",
					name, c.now, c.issueWake, e.d.Seq, e.readyAt)
			}
		}
	})
	if asleep == 0 {
		t.Fatal("the issue stage never slept: the test checked nothing")
	}
}

// TestWaitQueueHoldsArmedEntries steps every timing-golden case and
// checks after each cycle that the wait queue is strictly increasing in
// ring position from head and holds exactly the ROB's armed entries: the
// live, unissued ones with no pending producer. TestIssueWakeIsExact
// looks only inside the queue, so it would pass a queue that lost an
// armed entry; the goldens see one only where it moves a counter.
func TestWaitQueueHoldsArmedEntries(t *testing.T) {
	var ordered uint64
	eachTimingCycle(t, func(name string, c *Core) {
		pos := -1
		for _, slot := range c.waitQ {
			p := wrap(int(slot)-c.head+len(c.rob), len(c.rob))
			if p <= pos {
				t.Fatalf("%s, cycle %d: wait queue %v is out of ring order from head %d", name, c.now, c.waitQ, c.head)
			}
			pos = p
			if e := &c.rob[slot]; !e.live || e.issued || e.pending != 0 {
				t.Fatalf("%s, cycle %d: wait queue holds slot %d (live %v, issued %v, pending %d)",
					name, c.now, slot, e.live, e.issued, e.pending)
			}
		}
		armed := 0
		for i := range c.rob {
			if e := &c.rob[i]; e.live && !e.issued && e.pending == 0 {
				armed++
			}
		}
		if armed != len(c.waitQ) {
			t.Fatalf("%s, cycle %d: the ROB holds %d armed entries, the wait queue %d", name, c.now, armed, len(c.waitQ))
		}
		if len(c.waitQ) > 1 {
			ordered++
		}
	})
	if ordered == 0 {
		t.Fatal("the wait queue never held two entries: the test checked no order")
	}
}
