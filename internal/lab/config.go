// Package lab is the production client layer of the simulator: an
// explicit, validated, serializable configuration surface (presets +
// functional options), a Lab client that memoizes preparation and runs
// across requests (singleflight, bounded worker pool, context
// cancellation), and the typed request/response values the r3dlad
// service speaks. The root package r3dla re-exports this API; commands,
// examples and the service are all built on it, so core.Options
// construction happens in exactly one place.
package lab

import (
	"errors"
	"fmt"
	"strings"

	"r3dla/internal/core"
	"r3dla/internal/exp"
	"r3dla/internal/pipeline"
)

// ErrInvalid tags request-validation failures (bad option values,
// malformed specs); the service maps it to 400. Use errors.Is.
var ErrInvalid = errors.New("lab: invalid request")

// Preset is an immutable named base configuration. The three presets
// mirror the paper's comparison points; a Config starts from a preset
// and layers functional options on top.
type Preset struct {
	name string
	opt  func() core.Options
}

// The named presets: the plain single-core baseline every experiment
// normalizes against, the classic decoupled look-ahead design of
// Sec. III-A, and the full R3-DLA machine (T1 offload + value reuse +
// fetch buffer + recycling). All three include the BOP prefetcher, as in
// the paper's default comparison.
var (
	Baseline = Preset{"baseline", func() core.Options { return core.Options{Disable: true, WithBOP: true} }}
	DLA      = Preset{"dla", core.DLAOptions}
	R3       = Preset{"r3", core.R3Options}
)

// Presets lists the named presets in presentation order.
func Presets() []Preset { return []Preset{Baseline, DLA, R3} }

// PresetByName resolves a preset by its wire name ("baseline", "dla",
// "r3"); names are case-insensitive.
func PresetByName(name string) (Preset, bool) {
	for _, p := range Presets() {
		if strings.EqualFold(name, p.name) {
			return p, true
		}
	}
	return Preset{}, false
}

// Name returns the preset's wire name.
func (p Preset) Name() string { return p.name }

// Config selects a complete system configuration. Configs are built by
// NewConfig from a preset plus options, are valid by construction, and
// are plain values — copy freely, share freely.
type Config struct {
	preset string
	opt    core.Options
}

// Option is one functional configuration option, applied by NewConfig.
// Options validate their arguments and return errors instead of silently
// clamping.
type Option func(*Config) error

// NewConfig builds a configuration from a preset and options. The first
// failing option aborts construction.
func NewConfig(p Preset, opts ...Option) (Config, error) {
	if p.name == "" {
		return Config{}, fmt.Errorf("%w: zero Preset (use lab.Baseline, lab.DLA or lab.R3)", ErrInvalid)
	}
	c := Config{preset: p.name, opt: p.opt()}
	for _, o := range opts {
		if err := o(&c); err != nil {
			return Config{}, err
		}
	}
	if c.opt.Recycle && c.opt.HasFixedVersion {
		return Config{}, fmt.Errorf("%w: a fixed skeleton version conflicts with online recycling (disable one)", ErrInvalid)
	}
	// The baseline preset spawns no look-ahead thread, so look-ahead
	// options are contradictions, not no-ops: accepting them would make
	// every value an inert-but-distinct cache key, and a sweep axis over
	// them would simulate N identical baselines and report a meaningless
	// marginal. Reject them with the offending field named.
	if c.opt.Disable {
		var inert string
		switch {
		case c.opt.T1:
			inert = "the T1 offload"
		case c.opt.ValueReuse:
			inert = "value reuse"
		case c.opt.FetchBuffer:
			inert = "the fetch buffer"
		case c.opt.Recycle:
			inert = "recycling"
		case c.opt.PrefetchOnly:
			inert = "prefetch-only mode"
		case c.opt.HasFixedVersion:
			inert = "a fixed skeleton version"
		case c.opt.StaticLCT != nil:
			inert = "a static LCT"
		case c.opt.BOQSize != 0:
			inert = "BOQ sizing"
		case c.opt.FQSize != 0:
			inert = "FQ sizing"
		case c.opt.VQSize != 0:
			inert = "VQ sizing"
		case c.opt.RebootCost != 0:
			inert = "reboot cost"
		case c.opt.TrialInsts != 0:
			inert = "a trial window"
		case c.opt.LTCfg != nil:
			inert = "a look-ahead core config"
		}
		if inert != "" {
			return Config{}, fmt.Errorf("%w: %s requires a look-ahead preset (baseline runs no look-ahead thread; use dla or r3)", ErrInvalid, inert)
		}
	}
	return c, nil
}

// MustConfig is NewConfig for static configurations known to be valid;
// it panics on error.
func MustConfig(p Preset, opts ...Option) Config {
	c, err := NewConfig(p, opts...)
	if err != nil {
		panic(err)
	}
	return c
}

// Preset returns the name of the preset the config was built from.
func (c Config) Preset() string { return c.preset }

// SystemOptions lowers the configuration to the core layer's option
// struct. This is the only path from the public API to core.Options.
func (c Config) SystemOptions() core.Options { return c.opt }

// Key returns the configuration's canonical key (core.Options.Key):
// equal keys mean identical simulation semantics, so the Lab's result
// cache can share runs across requests.
func (c Config) Key() string { return c.opt.Key() }

// RunKey renders the canonical identity of one simulation request
// (exp.RunKey): the Lab's run memo and result store, the fleet pool's
// routing, and the sweep/dse checkpoint journals all match on this one
// string.
func RunKey(workload string, cfg Config, budget uint64) string {
	return exp.RunKey(workload, cfg.opt, budget)
}

// ------------------------------------------------------- feature options

// WithT1 toggles the T1 strided-prefetch offload FSM ("reduce").
func WithT1(on bool) Option {
	return func(c *Config) error { c.opt.T1 = on; return nil }
}

// WithValueReuse toggles SIF-filtered value predictions through the VQ
// ("reuse").
func WithValueReuse(on bool) Option {
	return func(c *Config) error { c.opt.ValueReuse = on; return nil }
}

// WithFetchBuffer toggles the 32-entry BOQ-driven MT fetch buffer
// ("reuse").
func WithFetchBuffer(on bool) Option {
	return func(c *Config) error { c.opt.FetchBuffer = on; return nil }
}

// WithRecycle toggles online skeleton cycling ("recycle").
func WithRecycle(on bool) Option {
	return func(c *Config) error { c.opt.Recycle = on; return nil }
}

// WithBOP toggles the BOP prefetcher at both cores' L2.
func WithBOP(on bool) Option {
	return func(c *Config) error { c.opt.WithBOP = on; return nil }
}

// WithStride toggles the tuned hardware stride prefetcher at the MT L1
// (the Fig. 12 comparator).
func WithStride(on bool) Option {
	return func(c *Config) error { c.opt.WithStride = on; return nil }
}

// WithPrefetchOnly models CRE-style helpers: the leading thread only
// prefetches, and BOQ entries serve purely as a divergence check.
func WithPrefetchOnly(on bool) Option {
	return func(c *Config) error { c.opt.PrefetchOnly = on; return nil }
}

// -------------------------------------------------------- sizing options

// WithBOQ sets the branch outcome queue depth (default 512).
func WithBOQ(n int) Option {
	return func(c *Config) error {
		if n < 1 {
			return fmt.Errorf("%w: BOQ size %d, want >= 1", ErrInvalid, n)
		}
		c.opt.BOQSize = n
		return nil
	}
}

// WithFQ sets the footnote queue capacity (default 128), partitioned 3:1
// between prefetch hints and indirect targets — so it must be at least 4.
func WithFQ(n int) Option {
	return func(c *Config) error {
		if n < 4 {
			return fmt.Errorf("%w: FQ size %d, want >= 4 (3:1 prefetch/indirect split)", ErrInvalid, n)
		}
		c.opt.FQSize = n
		return nil
	}
}

// WithVQ sets the value queue (VPT) capacity (default 32).
func WithVQ(n int) Option {
	return func(c *Config) error {
		if n < 1 {
			return fmt.Errorf("%w: VQ size %d, want >= 1", ErrInvalid, n)
		}
		c.opt.VQSize = n
		return nil
	}
}

// WithRebootCost sets the LT resynchronization cost in cycles (default
// 64).
func WithRebootCost(cycles uint64) Option {
	return func(c *Config) error {
		if cycles == 0 {
			return fmt.Errorf("%w: reboot cost 0 (the default is applied by leaving it unset)", ErrInvalid)
		}
		c.opt.RebootCost = cycles
		return nil
	}
}

// WithTrials sets the recycle measurement window in committed MT
// instructions (default scales with the run budget).
func WithTrials(insts uint64) Option {
	return func(c *Config) error {
		if insts == 0 {
			return fmt.Errorf("%w: trial window 0", ErrInvalid)
		}
		c.opt.TrialInsts = insts
		return nil
	}
}

// ------------------------------------------------------ skeleton options

// WithVersion pins the look-ahead thread to recycle-pool version k
// (0-based, versions a–f of Sec. III-E1) instead of the baseline
// skeleton. Version 0 — the reduced skeleton — is a first-class value
// here; the old core-level sentinel made it unselectable.
func WithVersion(k int) Option {
	return func(c *Config) error {
		if k < 0 || k >= core.NumVersions {
			return fmt.Errorf("%w: skeleton version %d, want 0..%d", ErrInvalid, k, core.NumVersions-1)
		}
		c.opt.FixedVersion, c.opt.HasFixedVersion = k, true
		return nil
	}
}

// WithStaticLCT preloads the loop->version table from an offline tuning
// run (static recycling). The map is copied; versions are validated.
func WithStaticLCT(lct map[int]int) Option {
	return func(c *Config) error {
		if len(lct) == 0 {
			return fmt.Errorf("%w: empty static LCT", ErrInvalid)
		}
		cp := make(map[int]int, len(lct))
		for loop, v := range lct {
			if v < 0 || v >= core.NumVersions {
				return fmt.Errorf("%w: static LCT maps loop %d to version %d, want 0..%d",
					ErrInvalid, loop, v, core.NumVersions-1)
			}
			cp[loop] = v
		}
		c.opt.StaticLCT = cp
		return nil
	}
}

// ---------------------------------------------------------- core options

// WithCores sets the pipeline configuration of both cores (Table I by
// default).
func WithCores(cfg pipeline.Config) Option {
	return func(c *Config) error {
		if err := validCoreCfg(cfg); err != nil {
			return err
		}
		cp := cfg
		c.opt.CoreCfg = &cp
		return nil
	}
}

// WithLTCore overrides the look-ahead core's pipeline configuration
// (defaults to the MT's).
func WithLTCore(cfg pipeline.Config) Option {
	return func(c *Config) error {
		if err := validCoreCfg(cfg); err != nil {
			return err
		}
		cp := cfg
		c.opt.LTCfg = &cp
		return nil
	}
}

func validCoreCfg(cfg pipeline.Config) error {
	if cfg.FetchWidth < 1 || cfg.DecodeWidth < 1 || cfg.CommitWidth < 1 || cfg.ROB < 1 {
		return fmt.Errorf("%w: degenerate core config (fetch %d, decode %d, commit %d, ROB %d)",
			ErrInvalid, cfg.FetchWidth, cfg.DecodeWidth, cfg.CommitWidth, cfg.ROB)
	}
	return nil
}

// ----------------------------------------------------------- wire format

// ConfigSpec is the serializable form of a configuration: a preset name
// plus explicit overrides. Nil fields mean "preset default". It is the
// wire format POST /v1/runs accepts; Config() resolves and validates it
// through the same functional options programmatic callers use.
type ConfigSpec struct {
	Preset string `json:"preset"` // "baseline", "dla", "r3"; "" means baseline

	T1           *bool `json:"t1,omitempty"`
	ValueReuse   *bool `json:"value_reuse,omitempty"`
	FetchBuffer  *bool `json:"fetch_buffer,omitempty"`
	Recycle      *bool `json:"recycle,omitempty"`
	BOP          *bool `json:"bop,omitempty"`
	Stride       *bool `json:"stride,omitempty"`
	PrefetchOnly *bool `json:"prefetch_only,omitempty"`

	BOQSize    *int    `json:"boq_size,omitempty"`
	FQSize     *int    `json:"fq_size,omitempty"`
	VQSize     *int    `json:"vq_size,omitempty"`
	RebootCost *uint64 `json:"reboot_cost,omitempty"`
	TrialInsts *uint64 `json:"trial_insts,omitempty"`

	Version *int `json:"version,omitempty"` // fixed skeleton version, 0-based

	Cores *CoreSpec `json:"cores,omitempty"` // pipeline sizing of both cores
}

// CoreSpec is the serializable form of a pipeline configuration: a named
// model plus explicit width/capacity overrides (0 means "model default").
// It resolves through WithCores, so the same validation applies to wire
// requests and programmatic callers.
type CoreSpec struct {
	Model string `json:"model,omitempty"` // "default" (Table I), "wide", "half"; "" means default

	FetchWidth  int `json:"fetch_width,omitempty"`
	DecodeWidth int `json:"decode_width,omitempty"`
	IssueWidth  int `json:"issue_width,omitempty"`
	CommitWidth int `json:"commit_width,omitempty"`
	ROB         int `json:"rob,omitempty"`
	LSQ         int `json:"lsq,omitempty"`
}

// coreModels maps CoreSpec model names to their base configurations.
func coreModel(name string) (pipeline.Config, error) {
	switch strings.ToLower(name) {
	case "", "default":
		return pipeline.DefaultConfig(), nil
	case "wide":
		return pipeline.WideConfig(), nil
	case "half":
		return pipeline.HalfConfig(), nil
	}
	return pipeline.Config{}, fmt.Errorf("%w: unknown core model %q (want default, wide or half)", ErrInvalid, name)
}

// Config resolves the spec to a full pipeline configuration: the named
// model's sizing with non-zero overrides applied.
func (s CoreSpec) Config() (pipeline.Config, error) {
	cfg, err := coreModel(s.Model)
	if err != nil {
		return pipeline.Config{}, err
	}
	for _, o := range []struct {
		v   int
		dst *int
	}{
		{s.FetchWidth, &cfg.FetchWidth},
		{s.DecodeWidth, &cfg.DecodeWidth},
		{s.IssueWidth, &cfg.IssueWidth},
		{s.CommitWidth, &cfg.CommitWidth},
		{s.ROB, &cfg.ROB},
		{s.LSQ, &cfg.LSQ},
	} {
		if o.v < 0 {
			return pipeline.Config{}, fmt.Errorf("%w: negative core sizing %d", ErrInvalid, o.v)
		}
		if o.v > 0 {
			*o.dst = o.v
		}
	}
	return cfg, nil
}

// Key returns the spec's canonical short form ("wide", "default+rob=512",
// …), used as a sweep axis label.
func (s CoreSpec) Key() string {
	name := strings.ToLower(s.Model)
	if name == "" {
		name = "default"
	}
	var b strings.Builder
	b.WriteString(name)
	for _, o := range []struct {
		tag string
		v   int
	}{
		{"fetch", s.FetchWidth}, {"decode", s.DecodeWidth}, {"issue", s.IssueWidth},
		{"commit", s.CommitWidth}, {"rob", s.ROB}, {"lsq", s.LSQ},
	} {
		if o.v != 0 {
			fmt.Fprintf(&b, "+%s=%d", o.tag, o.v)
		}
	}
	return b.String()
}

// Config resolves the spec into a validated Config.
func (s ConfigSpec) Config() (Config, error) {
	name := s.Preset
	if name == "" {
		name = Baseline.Name()
	}
	p, ok := PresetByName(name)
	if !ok {
		return Config{}, fmt.Errorf("%w: unknown preset %q (want baseline, dla or r3)", ErrInvalid, s.Preset)
	}
	var opts []Option
	addB := func(v *bool, o func(bool) Option) {
		if v != nil {
			opts = append(opts, o(*v))
		}
	}
	addB(s.T1, WithT1)
	addB(s.ValueReuse, WithValueReuse)
	addB(s.FetchBuffer, WithFetchBuffer)
	addB(s.Recycle, WithRecycle)
	addB(s.BOP, WithBOP)
	addB(s.Stride, WithStride)
	addB(s.PrefetchOnly, WithPrefetchOnly)
	if s.BOQSize != nil {
		opts = append(opts, WithBOQ(*s.BOQSize))
	}
	if s.FQSize != nil {
		opts = append(opts, WithFQ(*s.FQSize))
	}
	if s.VQSize != nil {
		opts = append(opts, WithVQ(*s.VQSize))
	}
	if s.RebootCost != nil {
		opts = append(opts, WithRebootCost(*s.RebootCost))
	}
	if s.TrialInsts != nil {
		opts = append(opts, WithTrials(*s.TrialInsts))
	}
	if s.Version != nil {
		opts = append(opts, WithVersion(*s.Version))
	}
	if s.Cores != nil {
		cfg, err := s.Cores.Config()
		if err != nil {
			return Config{}, err
		}
		opts = append(opts, WithCores(cfg))
	}
	return NewConfig(p, opts...)
}
