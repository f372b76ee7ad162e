// Command mbabench regenerates the reconstructed tables and figures of the
// paper's evaluation (DESIGN.md §7) and hosts the benchmark-regression
// harness.
//
// Usage:
//
//	mbabench -exp all                 # run the whole suite
//	mbabench -exp R-Fig4 -seed 7      # one experiment, custom seed
//	mbabench -list                    # list experiment ids
//	mbabench -exp all -quick          # shrunken workloads (smoke run)
//	mbabench -benchjson BENCH_construction.json
//	                                  # machine-readable construction/solver
//	                                  # benchmarks at three market scales
//	mbabench -benchjson BENCH_solve.json -suites solve,round
//	                                  # steady-state solve + platform round
//	                                  # suites (workspace + arena reuse)
//	mbabench -benchjson BENCH_matching.json -suites matching
//	                                  # exact flow path, cold (serial
//	                                  # reference) vs workspace-reused
//	mbabench -benchjson BENCH_ingest.json -suites ingest
//	                                  # binary journal throughput: single
//	                                  # events vs concurrent group commit
//	                                  # vs 100-event batches, both fsyncs
//	mbabench -benchjson BENCH_overload.json -suites overload
//	                                  # admission-controlled serving under
//	                                  # 1x/2x/4x open-loop overload storms:
//	                                  # admitted latency + shed fraction
//	mbabench -benchdiff BENCH_solve.json
//	                                  # re-run a baseline's suites and fail
//	                                  # on >25% ns/op (or alloc) regressions
//	mbabench -cpuprofile cpu.pprof -memprofile heap.pprof ...
//	                                  # pprof capture around either mode
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mbabench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp         = flag.String("exp", "all", "experiment id to run, or \"all\"")
		seed        = flag.Uint64("seed", 42, "workload and algorithm seed")
		quick       = flag.Bool("quick", false, "shrink workloads for a fast smoke run")
		reps        = flag.Int("reps", 0, "repetitions per data point (0 = experiment default)")
		list        = flag.Bool("list", false, "list experiment ids and exit")
		outdir      = flag.String("outdir", "", "also write each experiment's output to <outdir>/<id>.txt")
		benchjson   = flag.String("benchjson", "", "run the benchmark-regression harness and write its JSON report to this file")
		suites      = flag.String("suites", "construction", "comma-separated benchmark suites for -benchjson (construction, solve, round, matching, incremental, sharded-round, ingest, overload)")
		roundSolver = flag.String("round-solver", "", "serving solver for the round and sharded-round suites (registry name; empty = per-suite default: greedy / exact)")
		benchdiff   = flag.String("benchdiff", "", "re-run this baseline report's suites and fail on regressions beyond -benchtol")
		benchtol    = flag.Float64("benchtol", experiments.DefaultBenchTolerance, "fractional slowdown tolerated by -benchdiff before failing")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return nil
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mbabench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "mbabench:", err)
			}
		}()
	}

	if *benchdiff != "" {
		baseline, err := experiments.LoadBenchReport(*benchdiff)
		if err != nil {
			return err
		}
		fmt.Printf("re-running suites %v against %s (tolerance %.0f%%)\n",
			baseline.Suites, *benchdiff, *benchtol*100)
		cfg := experiments.BenchConfig{Seed: baseline.Seed, Suites: baseline.Suites, RoundSolver: baseline.RoundSolver}
		fresh, err := experiments.RunBenchJSON(os.Stdout, cfg)
		if err != nil {
			return err
		}
		regressions := experiments.DiffBench(os.Stdout, baseline, fresh, *benchtol)
		if len(regressions) > 0 {
			// Wall-clock benchmarks on a shared host can lose >25% to a
			// scheduler or cgroup throttling window; a real regression
			// survives an independent sample, interference does not.  Re-run
			// the suites and gate on the per-entry minimum of the two runs.
			fmt.Printf("%d possible regression(s) — running a confirmation pass\n", len(regressions))
			confirm, err := experiments.RunBenchJSON(os.Stdout, cfg)
			if err != nil {
				return err
			}
			fresh = experiments.MergeBenchMin(fresh, confirm)
			fmt.Println("best-of-two comparison:")
			regressions = experiments.DiffBench(os.Stdout, baseline, fresh, *benchtol)
		}
		if len(regressions) > 0 {
			for _, r := range regressions {
				fmt.Fprintln(os.Stderr, "mbabench: regression:", r)
			}
			return fmt.Errorf("%d benchmark regression(s) vs %s", len(regressions), *benchdiff)
		}
		fmt.Printf("no regressions vs %s (%d entries compared)\n", *benchdiff, len(baseline.Results))
		return nil
	}

	if *benchjson != "" {
		var suiteList []string
		for _, s := range strings.Split(*suites, ",") {
			if s = strings.TrimSpace(s); s != "" {
				suiteList = append(suiteList, s)
			}
		}
		rep, err := experiments.RunBenchJSON(os.Stdout, experiments.BenchConfig{Seed: *seed, Suites: suiteList, RoundSolver: *roundSolver})
		if err != nil {
			return err
		}
		f, err := os.Create(*benchjson)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d entries)\n", *benchjson, len(rep.Results))
		return nil
	}

	cfg := experiments.RunConfig{Seed: *seed, Quick: *quick, Reps: *reps}
	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			return err
		}
	}
	runOne := func(e experiments.Experiment) error {
		var w io.Writer = os.Stdout
		var f *os.File
		if *outdir != "" {
			var err error
			f, err = os.Create(filepath.Join(*outdir, e.ID+".txt"))
			if err != nil {
				return err
			}
			w = io.MultiWriter(os.Stdout, f)
		}
		err := experiments.RunOne(w, e, cfg)
		if f != nil {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		return err
	}
	if *exp == "all" {
		for _, e := range experiments.All() {
			if err := runOne(e); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
		}
		return nil
	}
	e, err := experiments.ByID(*exp)
	if err != nil {
		return err
	}
	return runOne(e)
}
