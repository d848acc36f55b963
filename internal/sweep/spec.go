// Package sweep is the parameter-space exploration engine: a declarative
// grid Spec (axes over configuration fields plus a workload set) expands
// into a deduplicated run matrix, cells are dispatched through a Runner —
// the in-process Lab client, or a fleet pool routing across r3dlad
// backends — completed cells are checkpointed to an NDJSON journal so an
// interrupted sweep resumes without repeating work, and results
// aggregate into a long-form table with per-axis marginals. Because
// every cell runs through a Lab's singleflight result cache (in process,
// or in the serving r3dlad across the wire), overlapping sweeps (and
// sweeps overlapping plain runs) share simulations instead of repeating
// them; and because cells are deterministic, the rendered output is
// byte-identical whichever Runner executed them.
package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"r3dla/internal/lab"
	"r3dla/internal/workloads"
)

// MaxCells caps how many cells one sweep may expand to; larger grids are
// rejected at validation time (split them into several sweeps).
const MaxCells = 4096

// Spec is the declarative description of one parameter sweep: the
// workload set, the per-cell simulation budget, a base configuration
// every cell starts from, and the axes to vary. The grid is the cartesian
// product of all non-empty axes over all workloads; axes left empty keep
// the base configuration's value.
type Spec struct {
	// Workloads names the workload set: workload names, suite names
	// ("spec", "crono", "star", "npb"), or "all". Order is preserved;
	// duplicates collapse.
	Workloads []string `json:"workloads"`

	// Budget is the per-cell evaluation budget in committed MT
	// instructions (0 = the Lab default).
	Budget uint64 `json:"budget,omitempty"`

	// Base is the configuration each cell starts from before axis values
	// are applied ({} means the baseline preset).
	Base lab.ConfigSpec `json:"base,omitempty"`

	// Axes are the dimensions to vary.
	Axes Axes `json:"axes"`

	// Fidelity selects the evaluation tier for every cell: "" or "cycle"
	// for the cycle-accurate simulator, "analytic" for the Markov
	// fetch-buffer estimator, "mc" for the Monte-Carlo sampling tier
	// (see internal/tier). Estimated results carry their tier in the
	// output and in journal keys.
	Fidelity string `json:"fidelity,omitempty"`
}

// Axes lists the values to sweep per configuration field. Each non-empty
// list becomes one grid dimension, in the (fixed) field order below.
type Axes struct {
	Preset       []string `json:"preset,omitempty"`
	T1           []bool   `json:"t1,omitempty"`
	ValueReuse   []bool   `json:"value_reuse,omitempty"`
	FetchBuffer  []bool   `json:"fetch_buffer,omitempty"`
	Recycle      []bool   `json:"recycle,omitempty"`
	BOP          []bool   `json:"bop,omitempty"`
	Stride       []bool   `json:"stride,omitempty"`
	PrefetchOnly []bool   `json:"prefetch_only,omitempty"`

	BOQSize []int `json:"boq_size,omitempty"`
	FQSize  []int `json:"fq_size,omitempty"`
	VQSize  []int `json:"vq_size,omitempty"`

	Version []int `json:"version,omitempty"`

	Cores []lab.CoreSpec `json:"cores,omitempty"`
}

// Axis is one active grid dimension: a name for table columns and error
// messages, the rendered value labels, and a setter applying value i to a
// cell's ConfigSpec. Axes are how the grid is described symbolically —
// the dse explorer walks them to index cells without ever materializing
// the cartesian product.
type Axis struct {
	name   string
	labels []string
	apply  func(s *lab.ConfigSpec, i int)
}

// Name is the axis's column name ("preset", "boq_size", …).
func (a Axis) Name() string { return a.name }

// Len is the number of values on the axis.
func (a Axis) Len() int { return len(a.labels) }

// Label renders value i for tables and error messages.
func (a Axis) Label(i int) string { return a.labels[i] }

func boolAxis(name string, vals []bool, set func(s *lab.ConfigSpec, v *bool)) Axis {
	labels := make([]string, len(vals))
	for i, v := range vals {
		labels[i] = strconv.FormatBool(v)
	}
	return Axis{name, labels, func(s *lab.ConfigSpec, i int) { v := vals[i]; set(s, &v) }}
}

func intAxis(name string, vals []int, set func(s *lab.ConfigSpec, v *int)) Axis {
	labels := make([]string, len(vals))
	for i, v := range vals {
		labels[i] = strconv.Itoa(v)
	}
	return Axis{name, labels, func(s *lab.ConfigSpec, i int) { v := vals[i]; set(s, &v) }}
}

// Active returns the spec's active axes in fixed field order.
func (a Axes) Active() []Axis {
	var out []Axis
	if len(a.Preset) > 0 {
		out = append(out, Axis{"preset", a.Preset, func(s *lab.ConfigSpec, i int) { s.Preset = a.Preset[i] }})
	}
	add := func(ax Axis) { out = append(out, ax) }
	if len(a.T1) > 0 {
		add(boolAxis("t1", a.T1, func(s *lab.ConfigSpec, v *bool) { s.T1 = v }))
	}
	if len(a.ValueReuse) > 0 {
		add(boolAxis("value_reuse", a.ValueReuse, func(s *lab.ConfigSpec, v *bool) { s.ValueReuse = v }))
	}
	if len(a.FetchBuffer) > 0 {
		add(boolAxis("fetch_buffer", a.FetchBuffer, func(s *lab.ConfigSpec, v *bool) { s.FetchBuffer = v }))
	}
	if len(a.Recycle) > 0 {
		add(boolAxis("recycle", a.Recycle, func(s *lab.ConfigSpec, v *bool) { s.Recycle = v }))
	}
	if len(a.BOP) > 0 {
		add(boolAxis("bop", a.BOP, func(s *lab.ConfigSpec, v *bool) { s.BOP = v }))
	}
	if len(a.Stride) > 0 {
		add(boolAxis("stride", a.Stride, func(s *lab.ConfigSpec, v *bool) { s.Stride = v }))
	}
	if len(a.PrefetchOnly) > 0 {
		add(boolAxis("prefetch_only", a.PrefetchOnly, func(s *lab.ConfigSpec, v *bool) { s.PrefetchOnly = v }))
	}
	if len(a.BOQSize) > 0 {
		add(intAxis("boq_size", a.BOQSize, func(s *lab.ConfigSpec, v *int) { s.BOQSize = v }))
	}
	if len(a.FQSize) > 0 {
		add(intAxis("fq_size", a.FQSize, func(s *lab.ConfigSpec, v *int) { s.FQSize = v }))
	}
	if len(a.VQSize) > 0 {
		add(intAxis("vq_size", a.VQSize, func(s *lab.ConfigSpec, v *int) { s.VQSize = v }))
	}
	if len(a.Version) > 0 {
		add(intAxis("version", a.Version, func(s *lab.ConfigSpec, v *int) { s.Version = v }))
	}
	if len(a.Cores) > 0 {
		labels := make([]string, len(a.Cores))
		for i, c := range a.Cores {
			labels[i] = c.Key()
		}
		add(Axis{"cores", labels, func(s *lab.ConfigSpec, i int) { c := a.Cores[i]; s.Cores = &c }})
	}
	return out
}

// AxisNames lists the active axis names in grid order (the coordinate
// columns of the long-form table).
func (s Spec) AxisNames() []string {
	var out []string
	for _, ax := range s.Axes.Active() {
		out = append(out, ax.name)
	}
	return out
}

// Cell is one point of the expanded run matrix.
type Cell struct {
	// Index is the cell's position in deterministic expansion order
	// (workloads outer, then each axis in field order).
	Index int `json:"cell"`

	// Workload and Config fully determine the simulation.
	Workload string         `json:"workload"`
	Config   lab.ConfigSpec `json:"config"`

	// Coords are the cell's axis value labels, aligned with AxisNames.
	Coords []string `json:"coords,omitempty"`

	// Key is the cell's canonical identity: workload, resolved
	// configuration key, and budget. Equal keys mean identical simulation
	// semantics; the journal and the dedup step match on it.
	Key string `json:"key"`
}

// ParseSpec decodes a JSON sweep spec, rejecting unknown fields.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("%w: sweep spec: %v", lab.ErrInvalid, err)
	}
	// Trailing garbage after the spec object is a malformed spec too.
	if dec.More() {
		return Spec{}, fmt.Errorf("%w: sweep spec: trailing data after JSON object", lab.ErrInvalid)
	}
	return s, nil
}

// resolveWorkloads expands workload/suite/"all" entries into a
// deduplicated workload-name list, preserving first-mention order.
func resolveWorkloads(entries []string) ([]string, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("%w: workloads: empty (name workloads, suites, or \"all\")", lab.ErrInvalid)
	}
	seen := make(map[string]bool)
	var out []string
	addW := func(name string) {
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	for i, e := range entries {
		switch {
		case e == "all":
			for _, w := range workloads.All() {
				addW(w.Name)
			}
		case workloads.ByName(e) != nil:
			addW(e)
		default:
			if ws := workloads.BySuite(e); len(ws) > 0 {
				for _, w := range ws {
					addW(w.Name)
				}
				continue
			}
			return nil, fmt.Errorf("%w: workloads[%d]: unknown workload or suite %q", lab.ErrInvalid, i, e)
		}
	}
	return out, nil
}

// MaxSpace caps how many cells a lazily-enumerated space may describe:
// large enough that no realistic axis set hits it, small enough that
// size arithmetic can never overflow int64.
const MaxSpace = int64(1) << 40

// Enum is the lazy view of a spec's grid: workloads resolved, axes
// activated, total size computed — but no cell materialized. Cells are
// constructed on demand by enumeration index, so a 10^6-point space
// costs nothing to describe; the dse samplers and searchers draw from
// exactly this. Enumeration order matches Expand: workloads outermost,
// then each active axis in field order, last axis fastest.
type Enum struct {
	spec Spec
	wls  []string
	axes []Axis
	size int64
}

// Enumerate validates the spec's workloads and axes and returns the lazy
// grid view. Unlike Expand it enforces no MaxCells cap — only the
// arithmetic-overflow guard MaxSpace.
func (s Spec) Enumerate() (*Enum, error) {
	wls, err := resolveWorkloads(s.Workloads)
	if err != nil {
		return nil, err
	}
	if _, err := TierOf(s.Fidelity); err != nil {
		return nil, err
	}
	axes := s.Axes.Active()
	for _, ax := range axes {
		vals := make(map[string]bool, ax.Len())
		for _, l := range ax.labels {
			if vals[l] {
				return nil, fmt.Errorf("%w: axes.%s: duplicate value %s", lab.ErrInvalid, ax.name, l)
			}
			vals[l] = true
		}
	}
	size := int64(len(wls))
	for _, ax := range axes {
		if size > MaxSpace/int64(ax.Len()) {
			return nil, fmt.Errorf("%w: space exceeds %d cells", lab.ErrInvalid, MaxSpace)
		}
		size *= int64(ax.Len())
	}
	return &Enum{spec: s, wls: wls, axes: axes, size: size}, nil
}

// Size is the total cell count of the space (before any dedup of
// aliasing configurations).
func (e *Enum) Size() int64 { return e.size }

// Workloads lists the resolved workload names in enumeration order.
func (e *Enum) Workloads() []string { return e.wls }

// Axes lists the active axes in enumeration order.
func (e *Enum) Axes() []Axis { return e.axes }

// CellAt constructs the cell at enumeration index i, keyed at the given
// budget (the successive-halving searcher re-evaluates the same indices
// at rising budgets, so the budget is a parameter rather than read from
// the spec). Cell.Index is the enumeration index; unlike Expand, no
// cross-cell dedup happens here — aliasing indices yield equal Keys, and
// callers collapse on those.
func (e *Enum) CellAt(i int64, budget uint64) (Cell, error) {
	if i < 0 || i >= e.size {
		return Cell{}, fmt.Errorf("%w: cell index %d outside space of %d", lab.ErrInvalid, i, e.size)
	}
	idx := make([]int, len(e.axes))
	rem := i
	for d := len(e.axes) - 1; d >= 0; d-- {
		n := int64(e.axes[d].Len())
		idx[d] = int(rem % n)
		rem /= n
	}
	wl := e.wls[rem]
	spec := e.spec.Base
	coords := make([]string, len(e.axes))
	for d, ax := range e.axes {
		ax.apply(&spec, idx[d])
		coords[d] = ax.labels[idx[d]]
	}
	cfg, err := spec.Config()
	if err != nil {
		return Cell{}, fmt.Errorf("cell %s: %w", cellName(wl, e.axes, idx), err)
	}
	return Cell{
		Index:    int(i),
		Workload: wl,
		Config:   spec,
		Coords:   coords,
		Key:      lab.RunKey(wl, cfg, budget),
	}, nil
}

// Cell is CellAt at the spec's own budget.
func (e *Enum) Cell(i int64) (Cell, error) { return e.CellAt(i, e.spec.Budget) }

// Expand validates the spec and materializes its deduplicated run matrix
// in deterministic order: workloads outermost, then each active axis in
// field order. Cells whose resolved configurations coincide (axis values
// that alias after preset resolution) collapse to the first occurrence.
// Any invalid cell fails the whole expansion with the cell's coordinates
// in the error.
func (s Spec) Expand() ([]Cell, error) {
	e, err := s.Enumerate()
	if err != nil {
		return nil, err
	}
	if e.size > MaxCells {
		return nil, fmt.Errorf("%w: grid exceeds %d cells (search it with `r3dla explore`, or split the sweep)", lab.ErrInvalid, MaxCells)
	}
	seen := make(map[string]bool, e.size)
	var cells []Cell
	for i := int64(0); i < e.size; i++ {
		c, err := e.CellAt(i, s.Budget)
		if err != nil {
			return nil, err
		}
		if !seen[c.Key] {
			seen[c.Key] = true
			c.Index = len(cells)
			cells = append(cells, c)
		}
	}
	return cells, nil
}

// cellName renders a cell's coordinates for error messages.
func cellName(wl string, axes []Axis, idx []int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload=%s", wl)
	for i, ax := range axes {
		fmt.Fprintf(&b, " %s=%s", ax.name, ax.labels[idx[i]])
	}
	return b.String()
}

// labelOrder returns an axis's labels in first-seen cell order; used by
// the marginal tables so rows follow the spec's declared value order.
func labelOrder(cells []Cell, axisIdx int) []string {
	seen := make(map[string]bool)
	var out []string
	for _, c := range cells {
		l := c.Coords[axisIdx]
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}

// workloadOrder lists distinct workloads in cell order.
func workloadOrder(cells []Cell) []string {
	seen := make(map[string]bool)
	var out []string
	for _, c := range cells {
		if !seen[c.Workload] {
			seen[c.Workload] = true
			out = append(out, c.Workload)
		}
	}
	return out
}
