package pipeline

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"r3dla/internal/emu"
)

var updateTimingGoldens = flag.Bool("update", false,
	"rewrite the pipeline timing goldens in testdata/timing_goldens.json")

var timingGoldenPath = filepath.Join("testdata", "timing_goldens.json")

// flushPeriod is how often, in cycles, the flush cases squash the core.
const flushPeriod = 700

// everyFifthWrong predicts every produced value and is wrong on every
// fifth dynamic instruction, so both the correct-prediction and the
// replay paths fire on a fixed share of lookups.
type everyFifthWrong struct{}

func (everyFifthWrong) Lookup(d *emu.DynInst) (uint64, bool) {
	if d.Seq%5 == 0 {
		return d.Val + 1, true
	}
	return d.Val, true
}

func (everyFifthWrong) OnOutcome(*emu.DynInst, bool) {}

// timingRecord is what a timing golden pins for one run: every Metrics
// counter, plus a digest of the issue and commit event streams, so a
// scheduler that issues the same instructions in a different order or
// cycle fails even where the totals happen to agree.
type timingRecord struct {
	Metrics
	Events uint64 `json:"events_fnv"`
}

type timingCase struct {
	name       string
	seed       int64
	cfg        Config
	memLat     uint64
	vals       ValueSource
	flushEvery uint64 // 0 = never flush
}

// oddConfig is a narrow core whose ROB (100) is no multiple of 64, as a
// user's CoreSpec.ROB may be, with odd fetch, decode, issue and commit
// widths, so an issue or dispatch structure sized in machine words is
// pinned across its wrap-around too.
func oddConfig() Config {
	c := DefaultConfig()
	c.ROB, c.LSQ = 100, 48
	c.FetchWidth, c.FetchBufSize = 5, 5
	c.DecodeWidth, c.IssueWidth, c.CommitWidth = 3, 3, 3
	c.IntFUs = 3
	return c
}

func timingCases() []timingCase {
	shapes := []struct {
		name string
		cfg  Config
	}{{"default", DefaultConfig()}, {"wide", WideConfig()}, {"half", HalfConfig()}, {"odd", oddConfig()}}
	var cases []timingCase
	for seed := int64(1); seed <= 20; seed++ {
		for _, sh := range shapes {
			for _, lat := range []uint64{80, 300} {
				cases = append(cases, timingCase{
					name: fmt.Sprintf("rand%02d/%s/mem%d", seed, sh.name, lat),
					seed: seed, cfg: sh.cfg, memLat: lat,
				})
			}
		}
		skip := DefaultConfig()
		skip.SkipValidation = true
		cases = append(cases,
			timingCase{
				name: fmt.Sprintf("rand%02d/skipval/mem300", seed),
				seed: seed, cfg: skip, memLat: 300, vals: everyFifthWrong{},
			},
			timingCase{
				name: fmt.Sprintf("rand%02d/skipval-flush/mem300", seed),
				seed: seed, cfg: skip, memLat: 300, vals: everyFifthWrong{}, flushEvery: flushPeriod,
			})
	}
	return cases
}

func (tc timingCase) run(t *testing.T) timingRecord {
	t.Helper()
	cfg := tc.cfg
	c := newTestCore(randomProgram(tc.seed), tc.memLat, func(x *Config) { *x = cfg })
	c.Vals = tc.vals
	h := fnv.New64a()
	var buf [33]byte
	event := func(kind byte, vals ...uint64) {
		buf[0] = kind
		for i, v := range vals {
			binary.LittleEndian.PutUint64(buf[1+8*i:], v)
		}
		h.Write(buf[:1+8*len(vals)])
	}
	c.Hooks.OnIssue = func(d *emu.DynInst, dispatchCycle, execDone uint64) {
		event('i', d.Seq, c.Now(), dispatchCycle, execDone)
	}
	c.Hooks.OnCommit = func(d *emu.DynInst, now uint64) { event('c', d.Seq, now) }
	if tc.flushEvery == 0 {
		c.Run(0)
	} else {
		for !c.Done() && !c.M.Deadlocked {
			c.Tick()
			if c.M.Cycles%tc.flushEvery == 0 {
				c.Flush()
			}
			c.M.Deadlocked = c.M.Cycles > 10_000_000
		}
	}
	if c.M.Deadlocked {
		t.Fatalf("%s: deadlock", tc.name)
	}
	return timingRecord{Metrics: c.M, Events: h.Sum64()}
}

// TestPipelineTimingGoldens pins the core's timing: every Metrics
// counter and the issue/commit event stream of the random programs on
// the default, wide, half and odd core shapes at two memory latencies, plus
// skip-validation runs with a value source that is wrong on a fixed share
// of lookups, with and without periodic flushes. Any change to the issue,
// dispatch or commit logic that is meant as a pure speedup must leave
// every byte unchanged. Record with
// `go test ./internal/pipeline -run TestPipelineTimingGoldens -update`.
func TestPipelineTimingGoldens(t *testing.T) {
	got := map[string]timingRecord{}
	var skipped, mispreds uint64
	for _, tc := range timingCases() {
		rec := tc.run(t)
		got[tc.name] = rec
		if tc.vals != nil {
			skipped += rec.Skipped
			mispreds += rec.ValueMispreds
		}
	}
	if skipped == 0 || mispreds == 0 {
		t.Fatalf("skip-validation cases exercised nothing: %d skipped, %d value mispredicts", skipped, mispreds)
	}
	if *updateTimingGoldens {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(timingGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(timingGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(timingGoldenPath)
	if err != nil {
		t.Fatalf("missing golden (run `go test ./internal/pipeline -run TestPipelineTimingGoldens -update`): %v", err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d cases, the test runs %d", len(want), len(got))
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b, err := json.Marshal(got[name])
		if err != nil {
			t.Fatal(err)
		}
		var w bytes.Buffer
		if err := json.Compact(&w, want[name]); err != nil {
			t.Errorf("%s: no golden: %v", name, err)
			continue
		}
		if !bytes.Equal(b, w.Bytes()) {
			t.Errorf("%s drifted from the golden.\n--- want ---\n%s\n--- got ---\n%s", name, w.Bytes(), b)
		}
	}
}
