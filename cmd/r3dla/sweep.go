package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"r3dla/internal/fleet"
	"r3dla/internal/lab"
	"r3dla/internal/sweep"
)

// runSweep is the `r3dla sweep` subcommand: a parameter-space sweep over
// the configuration grid, sharded across the Lab's worker pool, with
// checkpoint/resume through an NDJSON journal. The grid comes from a
// JSON spec file (-spec) or from per-axis flags; stdout carries the
// aggregate tables (byte-identical for any -jobs), stderr the progress.
func runSweep(args []string) {
	fatalPrefix = "r3dla sweep"
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	var (
		specPath = fs.String("spec", "", "sweep spec file (JSON); overrides the axis flags")
		axes     = addAxisFlags(fs)
		budget   = fs.Uint64("budget", 150_000, "committed instructions per cell")
		fidelity = fs.String("fidelity", "", "evaluation fidelity: cycle (default), analytic, mc")
		jobs     = fs.Int("jobs", 0, "max concurrent simulations (0 = GOMAXPROCS; fleet: 16 per backend)")
		journal  = fs.String("journal", "", "checkpoint journal path (NDJSON, one cell per line)")
		resume   = fs.Bool("resume", false, "skip cells already checkpointed in -journal")
		format   = fs.String("format", "text", "comma-separated output formats: text, json, csv")
		outDir   = fs.String("out", "results", "directory for json/csv output files")
		quiet    = fs.Bool("q", false, "suppress progress reporting on stderr")
		backends = fs.String("backends", "", "comma-separated r3dlad addresses; empty = run locally")
		hedge    = fs.Duration("hedge", 0, "fleet: duplicate straggler cells onto a second backend after this delay (0 = off)")
	)
	fs.Parse(args)

	budgetSet, fidelitySet := false, false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "budget":
			budgetSet = true
		case "fidelity":
			fidelitySet = true
		}
	})

	var spec sweep.Spec
	if *specPath != "" {
		data, err := os.ReadFile(*specPath)
		if err != nil {
			fatalf("%v", err)
		}
		if spec, err = sweep.ParseSpec(data); err != nil {
			fatalf("%v", err)
		}
		// Precedence: an explicit -budget beats the spec file's budget,
		// which beats the default.
		if budgetSet || spec.Budget == 0 {
			spec.Budget = *budget
		}
	} else {
		spec = axes.spec(*budget)
	}
	// An explicit -fidelity beats the spec file's fidelity (axis-flag
	// grids have no other way to set it at all).
	if fidelitySet || spec.Fidelity == "" {
		spec.Fidelity = *fidelity
	}
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

	// Cells run through a Runner: the in-process Lab, or a fleet pool
	// routing cells across r3dlad backends. The journal sits on this side
	// of the boundary, so checkpoint/resume works identically either way;
	// the backends must advertise the sweep's budget (verified up front),
	// because skeleton preparation runs at the server's training budget.
	var runner sweep.Runner
	if *backends != "" {
		// Backends simulate cycle-accurately; estimator tiers are local
		// math over a local calibration and gain nothing from a fleet.
		if tr, err := sweep.TierOf(spec.Fidelity); err != nil {
			fatalf("%v", err)
		} else if tr != sweep.TierCycle {
			fatalf("-fidelity %s runs locally; drop -backends", spec.Fidelity)
		}
		// Sweep cells are bulk traffic: batch priority keeps them from
		// starving interactive runs sharing the same fleet.
		remotes, err := parseBackends(*backends, fleet.WithPriority(lab.PriorityBatch))
		if err != nil {
			fatalf("%v", err)
		}
		if err := verifyFleetBudget(ctx, remotes, spec.Budget); err != nil {
			fatalf("%v", err)
		}
		pool, err := newFleetPool(remotes, *jobs, *hedge)
		if err != nil {
			fatalf("%v", err)
		}
		defer pool.Close()
		runner = pool
	} else {
		l, err := lab.New(lab.WithBudget(spec.Budget), lab.WithJobs(*jobs))
		if err != nil {
			fatalf("%v", err)
		}
		tiers := &sweep.TierRunners{Lab: l}
		if runner, err = tiers.Runner(spec.Fidelity, spec.Budget, 0); err != nil {
			fatalf("%v", err)
		}
	}

	opts := sweep.Options{Journal: *journal, Resume: *resume}
	opts.Warn = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "r3dla "+format+"\n", args...)
	}
	if !*quiet {
		opts.Progress = func(ev sweep.Event) {
			state := ev.Elapsed.Round(time.Millisecond).String()
			if ev.Resumed {
				state = "resumed"
			}
			fmt.Fprintf(os.Stderr, "  [cell %d/%d] %-9s %s (%s)\n",
				ev.Done, ev.Total, ev.Cell.Workload, strings.Join(ev.Cell.Coords, " "), state)
		}
	}
	res, err := sweep.Run(ctx, runner, spec, opts)
	if err != nil {
		if *journal != "" && ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "r3dla sweep: interrupted; resume with -journal %s -resume\n", *journal)
		}
		fatalf("%v", err)
	}
	if res.Resumed > 0 {
		fmt.Fprintf(os.Stderr, "r3dla sweep: %d/%d cells restored from %s\n", res.Resumed, len(res.Cells), *journal)
	}

	rep := res.Report()
	if wantText {
		fmt.Println(rep.String())
	}
	if wantJSON {
		if err := writeFile(filepath.Join(*outDir, "sweep.json"), rep.WriteJSON); err != nil {
			fatalf("%v", err)
		}
	}
	if wantCSV {
		if err := writeFile(filepath.Join(*outDir, "sweep.csv"), rep.WriteCSV); err != nil {
			fatalf("%v", err)
		}
	}
}

// fatalPrefix names the subcommand in fatalf output; each subcommand
// sets it on entry so the shared flag parsers report the right context.
var fatalPrefix = "r3dla sweep"

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, fatalPrefix+": "+format+"\n", args...)
	os.Exit(1)
}

// axisFlags holds the per-axis grid flags that `r3dla sweep` and
// `r3dla explore` share.
type axisFlags struct {
	workloads, presets, t1, valueReuse, fetchBuffer, recycle *string
	boq, fq, vq, version, cores                              *string
}

func addAxisFlags(fs *flag.FlagSet) *axisFlags {
	return &axisFlags{
		workloads:   fs.String("workloads", "", "comma-separated workloads, suites, or 'all'"),
		presets:     fs.String("preset", "", "preset axis: comma-separated baseline,dla,r3"),
		t1:          fs.String("t1", "", "T1-offload axis: comma-separated true,false"),
		valueReuse:  fs.String("value-reuse", "", "value-reuse axis: comma-separated true,false"),
		fetchBuffer: fs.String("fetch-buffer", "", "fetch-buffer axis: comma-separated true,false"),
		recycle:     fs.String("recycle", "", "recycle axis: comma-separated true,false"),
		boq:         fs.String("boq", "", "BOQ-size axis: comma-separated ints"),
		fq:          fs.String("fq", "", "FQ-size axis: comma-separated ints"),
		vq:          fs.String("vq", "", "VQ-size axis: comma-separated ints"),
		version:     fs.String("version", "", "fixed skeleton version axis: comma-separated ints"),
		cores:       fs.String("cores", "", "core-model axis: comma-separated default,wide,half"),
	}
}

// spec is the grid the parsed flags describe, at budget.
func (a *axisFlags) spec(budget uint64) sweep.Spec {
	return sweep.Spec{
		Workloads: splitList(*a.workloads),
		Budget:    budget,
		Axes: sweep.Axes{
			Preset:      splitList(*a.presets),
			T1:          parseBools("t1", *a.t1),
			ValueReuse:  parseBools("value-reuse", *a.valueReuse),
			FetchBuffer: parseBools("fetch-buffer", *a.fetchBuffer),
			Recycle:     parseBools("recycle", *a.recycle),
			BOQSize:     parseInts("boq", *a.boq),
			FQSize:      parseInts("fq", *a.fq),
			VQSize:      parseInts("vq", *a.vq),
			Version:     parseInts("version", *a.version),
			Cores:       parseCores(*a.cores),
		},
	}
}

// splitList splits a comma-separated flag value ("" = nil).
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			out = append(out, e)
		}
	}
	return out
}

func parseBools(name, s string) []bool {
	var out []bool
	for _, e := range splitList(s) {
		v, err := strconv.ParseBool(e)
		if err != nil {
			fatalf("-%s: %q is not a bool", name, e)
		}
		out = append(out, v)
	}
	return out
}

func parseInts(name, s string) []int {
	var out []int
	for _, e := range splitList(s) {
		v, err := strconv.Atoi(e)
		if err != nil {
			fatalf("-%s: %q is not an int", name, e)
		}
		out = append(out, v)
	}
	return out
}

func parseCores(s string) []lab.CoreSpec {
	var out []lab.CoreSpec
	for _, e := range splitList(s) {
		out = append(out, lab.CoreSpec{Model: e})
	}
	return out
}

func parseFormats(format string) (text, jsonF, csvF bool) {
	for _, f := range strings.Split(format, ",") {
		switch strings.TrimSpace(f) {
		case "text":
			text = true
		case "json":
			jsonF = true
		case "csv":
			csvF = true
		case "":
		default:
			fmt.Fprintf(os.Stderr, "unknown -format %q (want text, json, csv)\n", f)
			os.Exit(2)
		}
	}
	return
}
