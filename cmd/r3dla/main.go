// Command r3dla regenerates the tables and figures of the R3-DLA paper
// (Kondguli & Huang, HPCA 2019) from the simulator in this repository.
//
// Usage:
//
//	r3dla -exp fig9a                     # one experiment
//	r3dla -exp all -budget 300000        # everything, bigger runs
//	r3dla -exp all -jobs 8               # parallel, identical output
//	r3dla -exp all -format json,csv -out results
//	r3dla -list                          # what's available
//
//	r3dla run -workload mcf -preset r3 -budget 300000
//
//	r3dla sweep -workloads mcf,libq -preset dla,r3 -boq 128,512
//	r3dla sweep -spec sweep.json -journal sweep.ndjson
//	r3dla sweep -spec sweep.json -journal sweep.ndjson -resume
//
//	r3dla explore -workloads all -boq 16,64,256,1024 -fq 16,64,256 \
//	    -strategy pareto -seed 7 -samples 64 -rounds 2
//	r3dla explore -spec explore.json -journal explore.ndjson -resume
//
//	r3dla chaos -seed 7                  # seeded chaos soak against a mini-fleet
//
// The run subcommand executes one simulation and prints its RunResult
// JSON. The sweep subcommand explores a configuration grid (axes over
// presets, feature toggles, queue sizes, skeleton versions and core
// models) across a workload set, checkpointing completed cells to
// -journal so a killed sweep resumes with -resume; see README §sweeps
// for the spec format. The explore subcommand searches spaces too large
// to sweep: the same axes enumerated lazily, sampled (seeded random or
// Latin hypercube) and searched adaptively (successive halving on IPC,
// Pareto search over IPC vs energy) — fixed seed, byte-identical output
// (README "Exploring large spaces", DESIGN.md §9). The chaos subcommand
// runs a seeded fault-injection soak — an in-process mini-fleet under
// kills, torn writes and injected errors, asserting byte-identity
// against a fault-free baseline (README "Soak testing", DESIGN.md §11).
//
// All three modes accept -backends host1:8080,host2:8080 to distribute
// work across a fleet of r3dlad instances: cells route least-loaded with
// failover to surviving backends, and stdout stays byte-identical to a
// fully local run (README "Running a cluster", DESIGN.md §7).
//
// Experiments run through the Lab client on a bounded worker pool
// (-jobs, default GOMAXPROCS); per-workload preparation and
// standard-configuration runs are shared across experiments, and the
// output is byte-identical for every -jobs value. Progress is reported
// on stderr as workloads are prepared and experiments complete; -v adds
// per-workload detail lines.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"r3dla/internal/lab"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "sweep":
			runSweep(os.Args[2:])
			return
		case "explore":
			runExplore(os.Args[2:])
			return
		case "run":
			runRun(os.Args[2:])
			return
		case "chaos":
			runChaos(os.Args[2:])
			return
		}
	}
	var (
		expID    = flag.String("exp", "", "experiment id (see -list), or 'all'")
		budget   = flag.Uint64("budget", 150_000, "committed instructions per simulation")
		list     = flag.Bool("list", false, "list available experiments")
		verbose  = flag.Bool("v", false, "per-workload detail")
		jobs     = flag.Int("jobs", 0, "max concurrent simulations (0 = GOMAXPROCS; fleet: 16 per backend)")
		format   = flag.String("format", "text", "comma-separated output formats: text, json, csv")
		outDir   = flag.String("out", "results", "directory for json/csv output files")
		quiet    = flag.Bool("q", false, "suppress progress reporting on stderr")
		backends = flag.String("backends", "", "comma-separated r3dlad addresses; empty = run locally")
		hedge    = flag.Duration("hedge", 0, "fleet: duplicate straggler requests onto a second backend after this delay (0 = off)")
	)
	flag.Parse()

	if *list || *expID == "" {
		fmt.Println("experiments:")
		fmt.Print(lab.FormatExperiments())
		if *expID == "" {
			os.Exit(2)
		}
		return
	}

	wantText, wantJSON, wantCSV := parseFormats(*format)
	if wantJSON || wantCSV {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "r3dla: %v\n", err)
			os.Exit(1)
		}
	}

	ids := []string{*expID}
	if *expID == "all" {
		ids = nil
		for _, e := range lab.ListExperiments() {
			ids = append(ids, e.ID)
		}
	} else if _, ok := lab.ExperimentByID(*expID); !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; available:\n%s", *expID, lab.FormatExperiments())
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	failed := false
	// deliver consumes one ordered result. Reports go to stdout; timing
	// goes to stderr with the rest of the progress reporting, so stdout is
	// byte-identical for any -jobs value — and for any -backends fleet.
	deliver := func(r lab.ExperimentResult) {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "r3dla: %s: %v\n", r.ID, r.Err)
			failed = true
			return
		}
		if wantText {
			fmt.Println(r.Report.String())
		}
		if wantJSON {
			if werr := writeFile(filepath.Join(*outDir, r.ID+".json"), r.Report.WriteJSON); werr != nil {
				fmt.Fprintf(os.Stderr, "r3dla: %v\n", werr)
				failed = true
			}
		}
		if wantCSV {
			if werr := writeFile(filepath.Join(*outDir, r.ID+".csv"), r.Report.WriteCSV); werr != nil {
				fmt.Fprintf(os.Stderr, "r3dla: %v\n", werr)
				failed = true
			}
		}
	}

	var err error
	if *backends != "" {
		// Distributed: each experiment is dispatched to a fleet of r3dlad
		// backends. Experiments run at the serving backend's budget, so
		// the fleet must advertise the client's -budget — verified up
		// front, keeping distributed stdout byte-identical to local runs.
		remotes, perr := parseBackends(*backends)
		if perr != nil {
			fmt.Fprintf(os.Stderr, "r3dla: %v\n", perr)
			os.Exit(2)
		}
		if *verbose {
			fmt.Fprintln(os.Stderr, "r3dla: note: -v per-workload detail is not available with -backends (it lives in the backends' logs)")
		}
		if verr := verifyFleetBudget(ctx, remotes, *budget); verr != nil {
			fmt.Fprintf(os.Stderr, "r3dla: %v\n", verr)
			os.Exit(1)
		}
		pool, perr := newFleetPool(remotes, *jobs, *hedge)
		if perr != nil {
			fmt.Fprintf(os.Stderr, "r3dla: %v\n", perr)
			os.Exit(1)
		}
		defer pool.Close()
		done := deliver
		if !*quiet {
			done = func(r lab.ExperimentResult) {
				if r.Err == nil {
					fmt.Fprintf(os.Stderr, "[done] %s (%v)\n", r.ID, r.Elapsed.Round(time.Millisecond))
				}
				deliver(r)
			}
		}
		_, err = pool.Experiments(ctx, ids, done)
	} else {
		opts := []lab.ClientOption{lab.WithBudget(*budget), lab.WithJobs(*jobs)}
		if *verbose {
			opts = append(opts, lab.WithDetailLog(os.Stderr))
		}
		if !*quiet {
			opts = append(opts, lab.WithProgress(func(ev lab.Event) {
				switch ev.Stage {
				case "prep":
					fmt.Fprintf(os.Stderr, "  [prep] %-9s ready in %v\n", ev.Workload, ev.Elapsed.Round(time.Millisecond))
				case "run":
					if *verbose {
						fmt.Fprintf(os.Stderr, "  [run]  %-9s %-14s %v\n", ev.Workload, ev.Key, ev.Elapsed.Round(time.Millisecond))
					}
				case "exp":
					fmt.Fprintf(os.Stderr, "[done] %s (%v)\n", ev.Exp, ev.Elapsed.Round(time.Millisecond))
				}
			}))
		}
		var l *lab.Lab
		if l, err = lab.New(opts...); err == nil {
			_, err = l.Experiments(ctx, ids, deliver)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "r3dla: %v\n", err)
		os.Exit(1)
	}
	if failed {
		os.Exit(1)
	}
}

// writeFile creates path and streams write into it.
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
