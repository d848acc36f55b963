package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"r3dla/internal/dse"
	"r3dla/internal/fleet"
	"r3dla/internal/lab"
	"r3dla/internal/sweep"
)

// runExplore is the `r3dla explore` subcommand: adaptive design-space
// exploration over a symbolic configuration space too large to sweep.
// The space comes from an explore spec file (-spec, JSON) or from the
// same per-axis flags as `r3dla sweep`; -strategy picks the search loop
// (random / lhs one-shot sampling, successive halving on IPC, Pareto
// search over IPC vs energy) and -seed fixes every random choice, so
// stdout is byte-identical for any -jobs count, local or -backends, and
// across -journal / -resume interruptions.
func runExplore(args []string) {
	fatalPrefix = "r3dla explore"
	fs := flag.NewFlagSet("explore", flag.ExitOnError)
	var (
		specPath  = fs.String("spec", "", "explore spec file (JSON); overrides the axis flags")
		axes      = addAxisFlags(fs)
		budget    = fs.Uint64("budget", 150_000, "full-fidelity committed instructions per cell")
		fidelity  = fs.String("fidelity", "", "evaluation fidelity: cycle (default), analytic, mc, or ladder (analytic -> mc -> cycle)")
		strategy  = fs.String("strategy", dse.StrategyPareto, "search strategy: random, lhs, halving, pareto")
		sampler   = fs.String("sampler", "", "candidate sampler for halving/pareto: random, lhs (default random)")
		seed      = fs.Int64("seed", 1, "exploration seed; equal seeds give byte-identical output")
		samples   = fs.Int("samples", 0, "cells drawn per round (0 = default)")
		rounds    = fs.Int("rounds", 0, "pareto rounds (0 = default)")
		eta       = fs.Int("eta", 0, "halving reduction factor (0 = default)")
		minBudget = fs.Uint64("min-budget", 0, "halving round-0 budget (0 = derive from -budget)")
		jobs      = fs.Int("jobs", 0, "max concurrent simulations (0 = GOMAXPROCS; fleet: 16 per backend)")
		journal   = fs.String("journal", "", "checkpoint journal path (NDJSON, one cell per line)")
		resume    = fs.Bool("resume", false, "restore cells already checkpointed in -journal")
		format    = fs.String("format", "text", "comma-separated output formats: text, json, csv")
		outDir    = fs.String("out", "results", "directory for json/csv output files")
		quiet     = fs.Bool("q", false, "suppress progress reporting on stderr")
		backends  = fs.String("backends", "", "comma-separated r3dlad addresses; empty = run locally")
		hedge     = fs.Duration("hedge", 0, "fleet: duplicate straggler cells onto a second backend after this delay (0 = off)")
	)
	fs.Parse(args)

	// Presence, not value, decides precedence: an explicit -samples 0 must
	// override a spec file's non-zero samples, which a value test alone
	// cannot see (zero is also every knob's "use the default" sentinel).
	setFlags := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })

	var spec dse.Spec
	if *specPath != "" {
		data, err := os.ReadFile(*specPath)
		if err != nil {
			fatalf("%v", err)
		}
		if spec, err = dse.ParseSpec(data); err != nil {
			fatalf("%v", err)
		}
	} else {
		spec.Space = axes.spec(*budget)
	}
	mergeSearchFlags(&spec, searchFlags{
		budget:    *budget,
		fidelity:  *fidelity,
		strategy:  *strategy,
		sampler:   *sampler,
		seed:      *seed,
		samples:   *samples,
		rounds:    *rounds,
		eta:       *eta,
		minBudget: *minBudget,
	}, setFlags)
	if *resume && *journal == "" {
		fatalf("-resume requires -journal")
	}

	wantText, wantJSON, wantCSV := parseFormats(*format)
	if wantJSON || wantCSV {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatalf("%v", err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// The search loop draws cells, a Runner evaluates them: the in-process
	// Lab or a fleet pool over r3dlad backends. Journal and sampler state
	// both live on this side of the boundary, so a distributed exploration
	// checkpoints, resumes and byte-matches a local one.
	var (
		runner  sweep.Runner
		tierLab *lab.Lab // local lab the estimator tiers calibrate against
	)
	if *backends != "" {
		// Backends simulate cycle-accurately; a whole-search estimator
		// fidelity is local math and gains nothing from a fleet. A ladder's
		// estimator rungs likewise run locally — only its cycle-accurate
		// finalists go to the backends.
		if tr, err := sweep.TierOf(spec.Space.Fidelity); err != nil {
			fatalf("%v", err)
		} else if tr != sweep.TierCycle {
			fatalf("-fidelity %s runs locally; drop -backends", spec.Space.Fidelity)
		}
		// Exploration cells are bulk traffic: batch priority keeps them
		// from starving interactive runs sharing the same fleet.
		remotes, err := parseBackends(*backends, fleet.WithPriority(lab.PriorityBatch))
		if err != nil {
			fatalf("%v", err)
		}
		if err := verifyFleetBudget(ctx, remotes, spec.Space.Budget); err != nil {
			fatalf("%v", err)
		}
		pool, err := newFleetPool(remotes, *jobs, *hedge)
		if err != nil {
			fatalf("%v", err)
		}
		defer pool.Close()
		runner = pool
		if spec.Fidelity == dse.FidelityLadder {
			if tierLab, err = lab.New(lab.WithBudget(spec.Space.Budget), lab.WithJobs(*jobs)); err != nil {
				fatalf("%v", err)
			}
		}
	} else {
		l, err := lab.New(lab.WithBudget(spec.Space.Budget), lab.WithJobs(*jobs))
		if err != nil {
			fatalf("%v", err)
		}
		tiers := &sweep.TierRunners{Lab: l}
		if runner, err = tiers.Runner(spec.Space.Fidelity, spec.Space.Budget, uint64(spec.Seed)); err != nil {
			fatalf("%v", err)
		}
		tierLab = l
	}

	opts := dse.Options{Journal: *journal, Resume: *resume}
	if spec.Fidelity == dse.FidelityLadder {
		tiers := &sweep.TierRunners{Lab: tierLab}
		analytic, aerr := tiers.Runner(sweep.TierAnalytic, spec.Space.Budget, uint64(spec.Seed))
		mc, merr := tiers.Runner(sweep.TierMC, spec.Space.Budget, uint64(spec.Seed))
		if aerr != nil || merr != nil {
			fatalf("fidelity ladder tiers unavailable")
		}
		opts.Tiers = &dse.Tiers{Analytic: analytic, MC: mc}
	}
	if !*quiet {
		opts.Progress = func(ev sweep.Event) {
			state := ev.Elapsed.Round(time.Millisecond).String()
			if ev.Resumed {
				state = "resumed"
			}
			fmt.Fprintf(os.Stderr, "  [cell %d/%d @%d] %-9s %s (%s)\n",
				ev.Done, ev.Total, ev.Result.Budget, ev.Cell.Workload,
				strings.Join(ev.Cell.Coords, " "), state)
		}
	}
	res, err := dse.Explore(ctx, runner, spec, opts)
	if err != nil {
		if *journal != "" && ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "r3dla explore: interrupted; resume with -journal %s -resume\n", *journal)
		}
		fatalf("%v", err)
	}
	if res.Resumed > 0 {
		fmt.Fprintf(os.Stderr, "r3dla explore: %d/%d cells restored from %s\n", res.Resumed, len(res.Evaluated), *journal)
	}

	rep := res.Report()
	if wantText {
		fmt.Println(rep.String())
	}
	if wantJSON {
		if err := writeFile(filepath.Join(*outDir, "explore.json"), rep.WriteJSON); err != nil {
			fatalf("%v", err)
		}
	}
	if wantCSV {
		if err := writeFile(filepath.Join(*outDir, "explore.csv"), rep.WriteCSV); err != nil {
			fatalf("%v", err)
		}
	}
}

// searchFlags carries the explore search knobs as parsed from the
// command line; merge precedence against a spec file lives in
// mergeSearchFlags so it is testable without a FlagSet.
type searchFlags struct {
	budget    uint64
	fidelity  string
	strategy  string
	sampler   string
	seed      int64
	samples   int
	rounds    int
	eta       int
	minBudget uint64
}

// mergeSearchFlags resolves the three-way precedence between an explicit
// command-line flag, a spec-file value, and the package default: a flag
// whose name is in set always wins — including an explicit zero, which
// is how a spec file's value is forced back to the package default —
// otherwise a non-zero (non-empty) spec value stands, and only then does
// the flag's default fill in.
func mergeSearchFlags(spec *dse.Spec, f searchFlags, set map[string]bool) {
	if set["budget"] || spec.Space.Budget == 0 {
		spec.Space.Budget = f.budget
	}
	if set["strategy"] || spec.Strategy == "" {
		spec.Strategy = f.strategy
	}
	if set["sampler"] || spec.Sampler == "" {
		spec.Sampler = f.sampler
	}
	if set["seed"] || spec.Seed == 0 {
		spec.Seed = f.seed
	}
	if set["samples"] || spec.Samples == 0 {
		spec.Samples = f.samples
	}
	if set["rounds"] || spec.Rounds == 0 {
		spec.Rounds = f.rounds
	}
	if set["eta"] || spec.Eta == 0 {
		spec.Eta = f.eta
	}
	if set["min-budget"] || spec.MinBudget == 0 {
		spec.MinBudget = f.minBudget
	}
	// -fidelity routes by value: "ladder" is an exploration mode
	// (Spec.Fidelity), while an estimator name runs the whole search on
	// that tier (Space.Fidelity, validated downstream). An explicit flag
	// replaces whatever the spec file said on both fields.
	if set["fidelity"] {
		spec.Fidelity, spec.Space.Fidelity = "", ""
		switch f.fidelity {
		case "", "cycle":
		case dse.FidelityLadder:
			spec.Fidelity = dse.FidelityLadder
		default:
			spec.Space.Fidelity = f.fidelity
		}
	}
}
