// Package stats provides the small statistical and reporting helpers shared
// by the experiment harness: geometric means, ranges, histograms, and the
// Table type the experiment drivers emit — renderable as fixed-width text
// (mirroring the paper's tables/figures), as RFC-4180 CSV, or serialized
// to JSON through its exported fields.
package stats

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
)

// Geomean returns the geometric mean of xs. Non-positive entries are
// ignored (they would be NaN in log space); an empty input yields 0.
func Geomean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the median (0 for empty input).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// MinMax returns the extrema of xs (0,0 for empty input).
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Summary captures the distribution of one group of samples: sample
// count, geometric and arithmetic means, and extrema. The sweep engine's
// per-axis marginals are Summaries of cell IPCs grouped by axis value.
type Summary struct {
	N       int
	Geomean float64
	Mean    float64
	Min     float64
	Max     float64
}

// Summarize computes the Summary of xs (zero value for empty input).
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	lo, hi := MinMax(xs)
	return Summary{
		N:       len(xs),
		Geomean: Geomean(xs),
		Mean:    Mean(xs),
		Min:     lo,
		Max:     hi,
	}
}

// Histogram is a fixed-bin counting histogram over small non-negative
// integers (queue lengths, widths per cycle, …).
type Histogram struct {
	Counts []uint64
	Total  uint64
}

// NewHistogram returns a histogram with bins [0, n].
func NewHistogram(n int) *Histogram {
	return &Histogram{Counts: make([]uint64, n+1)}
}

// Clone returns a copy of h that shares no memory with it (nil for a
// nil h).
func (h *Histogram) Clone() *Histogram {
	if h == nil {
		return nil
	}
	return &Histogram{Counts: slices.Clone(h.Counts), Total: h.Total}
}

// Add counts one observation of value v (clamped into range).
func (h *Histogram) Add(v int) {
	if v < 0 {
		v = 0
	}
	if v >= len(h.Counts) {
		v = len(h.Counts) - 1
	}
	h.Counts[v]++
	h.Total++
}

// P returns the empirical probability of bin v.
func (h *Histogram) P(v int) float64 {
	if h.Total == 0 || v < 0 || v >= len(h.Counts) {
		return 0
	}
	return float64(h.Counts[v]) / float64(h.Total)
}

// Dist returns the whole distribution as probabilities.
func (h *Histogram) Dist() []float64 {
	d := make([]float64, len(h.Counts))
	for i, c := range h.Counts {
		if h.Total > 0 {
			d[i] = float64(c) / float64(h.Total)
		}
	}
	return d
}

// Mean returns the histogram's mean value.
func (h *Histogram) Mean() float64 {
	if h.Total == 0 {
		return 0
	}
	var s float64
	for v, c := range h.Counts {
		s += float64(v) * float64(c)
	}
	return s / float64(h.Total)
}

// Table is one table of an experiment report: a title, a header, and
// rows of pre-formatted cells. It renders as fixed-width text or CSV and
// marshals directly to JSON.
type Table struct {
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddRowF appends a row where float cells are formatted with %.*f.
func (t *Table) AddRowF(prec int, label string, vals ...float64) {
	cells := []string{label}
	for _, v := range vals {
		cells = append(cells, fmt.Sprintf("%.*f", prec, v))
	}
	t.Rows = append(t.Rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s", w, c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// WriteCSV writes the table as RFC-4180 CSV: a `# title` comment line
// (when titled), the header row, then the data rows.
func (t *Table) WriteCSV(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
			return err
		}
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	if err := cw.WriteAll(t.Rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// Bar renders a crude one-line ASCII bar for value v against full-scale hi.
func Bar(v, hi float64, width int) string {
	if hi <= 0 {
		hi = 1
	}
	n := int(v / hi * float64(width))
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return strings.Repeat("#", n) + strings.Repeat(".", width-n)
}
