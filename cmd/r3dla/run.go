package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"time"

	"r3dla/internal/fleet"
	"r3dla/internal/lab"
	"r3dla/internal/sweep"
)

// runRun is the `r3dla run` subcommand: one simulation — a workload, a
// configuration, a budget — executed locally or routed through a fleet of
// r3dlad backends (-backends). The result is the RunResult JSON on
// stdout, byte-identical to the service's POST /v1/runs body for the same
// request, wherever it ran.
func runRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var (
		workload   = fs.String("workload", "", "workload name (required; see wlinfo)")
		preset     = fs.String("preset", "baseline", "configuration preset: baseline, dla, r3")
		config     = fs.String("config", "", "full ConfigSpec JSON (overrides -preset)")
		budget     = fs.Uint64("budget", 150_000, "committed instructions to simulate")
		jobs       = fs.Int("jobs", 0, "max concurrent simulations (0 = GOMAXPROCS; fleet: 16 per backend)")
		backends   = fs.String("backends", "", "comma-separated r3dlad addresses; empty = run locally")
		hedge      = fs.Duration("hedge", 0, "duplicate straggler requests onto a second backend after this delay (0 = off)")
		priority   = fs.String("priority", "", "fleet admission class: interactive or batch (empty = server default)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile after the run to this file")
	)
	fs.Parse(args)
	if *workload == "" {
		fmt.Fprintln(os.Stderr, "r3dla run: -workload is required")
		os.Exit(2)
	}
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "r3dla run: %v\n", err)
		os.Exit(1)
	}

	spec := lab.ConfigSpec{Preset: *preset}
	if *config != "" {
		dec := json.NewDecoder(bytes.NewReader([]byte(*config)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			fmt.Fprintf(os.Stderr, "r3dla run: -config: %v\n", err)
			os.Exit(2)
		}
	}
	req := lab.RunRequest{Workload: *workload, Config: spec, Budget: *budget}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var runner sweep.Runner
	if *backends != "" {
		var ropts []fleet.RemoteOption
		switch *priority {
		case "", lab.PriorityInteractive, lab.PriorityBatch:
			if *priority != "" {
				ropts = append(ropts, fleet.WithPriority(*priority))
			}
		default:
			fmt.Fprintf(os.Stderr, "r3dla run: -priority must be %q or %q\n", lab.PriorityInteractive, lab.PriorityBatch)
			os.Exit(2)
		}
		remotes, err := parseBackends(*backends, ropts...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "r3dla run: %v\n", err)
			os.Exit(2)
		}
		if err := verifyFleetBudget(ctx, remotes, *budget); err != nil {
			fmt.Fprintf(os.Stderr, "r3dla run: %v\n", err)
			os.Exit(1)
		}
		pool, err := newFleetPool(remotes, *jobs, *hedge)
		if err != nil {
			fmt.Fprintf(os.Stderr, "r3dla run: %v\n", err)
			os.Exit(1)
		}
		defer pool.Close()
		runner = pool
	} else {
		l, err := lab.New(lab.WithBudget(*budget), lab.WithJobs(*jobs))
		if err != nil {
			fmt.Fprintf(os.Stderr, "r3dla run: %v\n", err)
			os.Exit(1)
		}
		runner = l
	}

	start := time.Now()
	res, err := runner.Run(ctx, req)
	if perr := stopProfiles(); perr != nil {
		fmt.Fprintf(os.Stderr, "r3dla run: %v\n", perr)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "r3dla run: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "r3dla run: %s in %v\n", *workload, time.Since(start).Round(time.Millisecond))
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "r3dla run: %v\n", err)
		os.Exit(1)
	}
}

// startProfiles begins CPU profiling and arranges a heap snapshot; the
// returned stop function finalizes both.
func startProfiles(cpupath, mempath string) (stop func() error, err error) {
	var cpuf *os.File
	if cpupath != "" {
		cpuf, err = os.Create(cpupath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuf); err != nil {
			cpuf.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuf != nil {
			pprof.StopCPUProfile()
			if err := cpuf.Close(); err != nil {
				return err
			}
		}
		if mempath != "" {
			memf, err := os.Create(mempath)
			if err != nil {
				return err
			}
			runtime.GC() // materialize the live set before the snapshot
			if err := pprof.WriteHeapProfile(memf); err != nil {
				memf.Close()
				return err
			}
			return memf.Close()
		}
		return nil
	}, nil
}
