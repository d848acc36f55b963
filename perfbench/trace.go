package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// noSpan is the parent of a root span, and what a nil tracer hands out.
const noSpan = -1

// span is one timed call into a layer, recorded from the benchmark's own
// code. Times are nanoseconds since the tracer's epoch.
type span struct {
	parent     int
	name       string
	start, end int64
}

// tracer keeps spans in memory until the benchmark ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{parent: parent, name: name, start: now, end: -1})
	t.mu.Unlock()
	return id
}

// finish closes span id.
func (t *tracer) finish(id int) {
	if t == nil || id == noSpan {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// snapshot returns the closed spans by id; open spans end at -1.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the duration in ms of every closed span called name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name && s.end >= s.start {
			out = append(out, float64(s.end-s.start)/1e6)
		}
	}
	return out
}

// selfTimes returns, in ms, each closed span called name minus the part
// of its interval that its children cover. Children may overlap each
// other (concurrent calls), so their clipped intervals are merged first.
func selfTimes(spans []span, name string) []float64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.parent != noSpan && s.end >= s.start {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	var out []float64
	for id, s := range spans {
		if s.name != name || s.end < s.start {
			continue
		}
		out = append(out, float64(s.end-s.start-covered(s.start, s.end, children[id]))/1e6)
	}
	return out
}

// covered is the length of [lo, hi] that the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	var clipped [][2]int64
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv[1] <= end {
			continue
		}
		total += iv[1] - max(iv[0], end)
		end = iv[1]
	}
	return total
}

// writeSpans writes every span as one tab-separated line: id, parent,
// name, start and end in ns since the tracer started.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns")
	for id, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", id, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
