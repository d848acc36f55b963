// Package r3dla is a from-scratch Go reproduction of "R3-DLA (Reduce,
// Reuse, Recycle): A More Efficient Approach to Decoupled Look-Ahead
// Architectures" (Kondguli & Huang, HPCA 2019).
//
// The primary API is the Lab client: explicit, validated configurations
// built from presets plus functional options, and typed requests that
// resolve through a memoized (singleflight) result cache on a bounded
// worker pool. A typical use:
//
//	l, _ := r3dla.NewLab(r3dla.WithBudget(200_000), r3dla.WithJobs(8))
//	cfg, _ := r3dla.NewConfig(r3dla.R3, r3dla.WithBOQ(1024))
//	res, _ := l.RunConfig(ctx, "mcf", cfg, 0)
//	fmt.Println(res.IPC)
//
// Experiments reproducing each table/figure of the paper run through the
// same client (Lab.Experiment / Lab.Experiments), the cmd/r3dla command,
// or the cmd/r3dlad HTTP service. Low-level building blocks (programs,
// profiling, skeleton generation, NewSystem) remain available for
// harness-style instrumentation.
package r3dla

import (
	"r3dla/internal/core"
	"r3dla/internal/emu"
	"r3dla/internal/isa"
	"r3dla/internal/lab"
	"r3dla/internal/pipeline"
	"r3dla/internal/workloads"
)

// Re-exported core types. See the internal packages for full
// documentation of each.
type (
	// Program is a static program in the simulator's ISA.
	Program = isa.Program
	// Builder assembles Programs.
	Builder = isa.Builder
	// Memory is the functional data memory.
	Memory = emu.Memory
	// SystemOptions selects the DLA configuration (low-level; prefer
	// building a Config through NewConfig and Config.SystemOptions).
	SystemOptions = core.Options
	// System is a coupled look-ahead + main-thread machine.
	System = core.System
	// Results carries a finished run's metrics, detached from its System.
	Results = core.Results
	// WorkloadSpec is one benchmark of the evaluation suite.
	WorkloadSpec = workloads.Workload
	// TrainingProfile holds per-PC training statistics.
	TrainingProfile = core.Profile
	// SkeletonSet is the generated look-ahead program versions.
	SkeletonSet = core.Set
	// CoreConfig sizes a pipeline (Table I by default).
	CoreConfig = pipeline.Config
)

// The Lab API, re-exported from the lab layer.
type (
	// Lab is the simulation client: budgets, a bounded worker pool, and
	// singleflight memoization of preparation and runs.
	Lab = lab.Lab
	// ClientOption configures a Lab (WithBudget, WithJobs, …).
	ClientOption = lab.ClientOption
	// Preset is an immutable named base configuration.
	Preset = lab.Preset
	// Config is a validated system configuration (NewConfig).
	Config = lab.Config
	// Option is one functional configuration option (WithT1, WithBOQ, …).
	Option = lab.Option
	// ConfigSpec is the serializable preset-plus-overrides wire form.
	ConfigSpec = lab.ConfigSpec
	// RunRequest asks for one simulation.
	RunRequest = lab.RunRequest
	// RunResult is the architectural outcome of one simulation.
	RunResult = lab.RunResult
	// ExperimentRequest asks for one paper artifact by id.
	ExperimentRequest = lab.ExperimentRequest
	// ExperimentInfo names one regenerable artifact.
	ExperimentInfo = lab.ExperimentInfo
	// ExperimentResult is one experiment's outcome (report or error).
	ExperimentResult = lab.ExperimentResult
	// Report is the structured (tables of rows) result of one experiment;
	// it renders as text and serializes to JSON/CSV.
	Report = lab.Report
	// Event is a progress notification from the engine.
	Event = lab.Event
	// WorkloadInfo describes one benchmark of the evaluation suite.
	WorkloadInfo = lab.WorkloadInfo
	// Prepared is a workload ready to run (program + profile + skeletons).
	Prepared = lab.Prepared
)

// The named presets: plain single-core baseline, classic decoupled
// look-ahead, and the full R3-DLA machine.
var (
	Baseline = lab.Baseline
	DLA      = lab.DLA
	R3       = lab.R3
)

// Functional options, re-exported from the lab layer. Configuration
// options (for NewConfig):
var (
	WithT1           = lab.WithT1
	WithValueReuse   = lab.WithValueReuse
	WithFetchBuffer  = lab.WithFetchBuffer
	WithRecycle      = lab.WithRecycle
	WithBOP          = lab.WithBOP
	WithStride       = lab.WithStride
	WithPrefetchOnly = lab.WithPrefetchOnly
	WithBOQ          = lab.WithBOQ
	WithFQ           = lab.WithFQ
	WithVQ           = lab.WithVQ
	WithRebootCost   = lab.WithRebootCost
	WithTrials       = lab.WithTrials
	WithVersion      = lab.WithVersion
	WithStaticLCT    = lab.WithStaticLCT
	WithCores        = lab.WithCores
	WithLTCore       = lab.WithLTCore
)

// Client options (for NewLab):
var (
	WithBudget      = lab.WithBudget
	WithTrainBudget = lab.WithTrainBudget
	WithJobs        = lab.WithJobs
	WithProgress    = lab.WithProgress
	WithDetailLog   = lab.WithDetailLog
)

// NewLab builds a Lab client.
func NewLab(opts ...ClientOption) (*Lab, error) { return lab.New(opts...) }

// NewConfig builds a validated configuration from a preset plus options.
func NewConfig(p Preset, opts ...Option) (Config, error) { return lab.NewConfig(p, opts...) }

// MustConfig is NewConfig for static configurations; it panics on error.
func MustConfig(p Preset, opts ...Option) Config { return lab.MustConfig(p, opts...) }

// ListExperiments lists the regenerable paper artifacts in presentation
// order.
func ListExperiments() []ExperimentInfo { return lab.ListExperiments() }

// ExperimentIDs lists the regenerable artifact ids, sorted.
func ExperimentIDs() []string { return lab.ExperimentIDs() }

// ListWorkloads lists the evaluation suite.
func ListWorkloads() []WorkloadInfo { return lab.ListWorkloads() }

// PrepareProgram profiles a caller-supplied program and generates its
// skeletons, yielding material Lab.RunPrepared accepts. name keys the
// Lab's run cache.
func PrepareProgram(name string, prog *Program, setup func(*Memory), trainBudget uint64) *Prepared {
	return lab.PrepareProgram(name, prog, setup, trainBudget)
}

// Characterize profiles a named workload on the training input and
// summarizes its instruction mix and miss profile.
func Characterize(name string, budget uint64) (*lab.WorkloadStats, error) {
	return lab.Characterize(name, budget)
}

// DescribeSkeletons generates and summarizes a workload's skeleton set.
func DescribeSkeletons(name string, trainBudget uint64, listing bool) (*lab.SkeletonInfo, error) {
	return lab.DescribeSkeletons(name, trainBudget, listing)
}

// NewBuilder starts assembling a program.
func NewBuilder(name string) *Builder { return isa.NewBuilder(name) }

// NewMemory returns an empty data memory.
func NewMemory() *Memory { return emu.NewMemory() }

// Workload returns a named benchmark (nil if unknown); Workloads lists
// all 25.
func Workload(name string) *WorkloadSpec { return workloads.ByName(name) }

// Workloads returns the full evaluation suite.
func Workloads() []*WorkloadSpec { return workloads.All() }

// Profile performs a training run (Appendix A's profiling pass).
func Profile(p *Program, setup func(*Memory), budget uint64) *TrainingProfile {
	return core.Collect(p, setup, budget)
}

// Skeletons generates the look-ahead skeleton versions for a program.
func Skeletons(p *Program, prof *TrainingProfile) *SkeletonSet {
	return core.Generate(p, prof)
}

// NewSystem builds a DLA system (low-level; most callers want
// Lab.RunConfig or Lab.RunPrepared, which add caching and cancellation).
// Configurations should come from Config.SystemOptions rather than
// hand-built literals.
func NewSystem(p *Program, setup func(*Memory), set *SkeletonSet, prof *TrainingProfile, opt SystemOptions) *System {
	return core.NewSystem(p, setup, set, prof, opt)
}

// DefaultCoreConfig returns the Table I processing node.
func DefaultCoreConfig() CoreConfig { return pipeline.DefaultConfig() }

// HalfCoreConfig returns half the Table I node (one side of the SMT
// split of Sec. IV-B3).
func HalfCoreConfig() CoreConfig { return pipeline.HalfConfig() }

// WideCoreConfig returns the doubled node the SMT study splits.
func WideCoreConfig() CoreConfig { return pipeline.WideConfig() }
