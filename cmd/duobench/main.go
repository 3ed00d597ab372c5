// Command duobench regenerates the paper's tables and figures on the
// scaled-down substrate.
//
// Usage:
//
//	duobench -exp table2              # one experiment
//	duobench -exp table2,fig5        # several
//	duobench -exp all -scale small   # everything, bench scale
//	duobench -list                   # show experiment ids
//	duobench -bench pq               # PQ recall/crossover sweep → BENCH_pq.json
//
// Add -markdown to emit GitHub tables (used to build EXPERIMENTS.md).
// Performance questions other than the PQ sweep belong to the benchmark in
// bench/ (BENCHMARK.json), not to this command.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"duo/internal/experiments"
	"duo/internal/parallel"
	"duo/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "duobench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("duobench", flag.ContinueOnError)
	var (
		expFlag  = fs.String("exp", "all", "comma-separated experiment ids, or \"all\"")
		scale    = fs.String("scale", "tiny", "scale preset: tiny or small")
		seed     = fs.Int64("seed", 1, "experiment seed")
		markdown = fs.Bool("markdown", false, "emit markdown tables")
		list     = fs.Bool("list", false, "list experiment ids and exit")
		datasets = fs.String("datasets", "", "restrict datasets (comma-separated)")
		victims  = fs.String("victims", "", "restrict victim backbones (comma-separated)")
		outPath  = fs.String("out", "", "also write the rendered tables to this file")
		workers  = fs.Int("workers", 0, "worker count for parallel compute (0 = GOMAXPROCS, overrides DUO_PARALLEL)")
		telem    = fs.Bool("telemetry", false, "aggregate instrumentation across all experiments and print a summary at the end")

		bench    = fs.String("bench", "", "run a benchmark instead of experiments (only \"pq\": exact vs IVF-probe vs PQ scan sweep)")
		benchOut = fs.String("benchout", ".", "directory for BENCH_pq.json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return nil
	}

	if *bench != "" {
		if *bench != "pq" {
			return fmt.Errorf("unknown bench id %q (want pq; everything else moved to bench/)", *bench)
		}
		return runPQBench(*benchOut, func(s string) { fmt.Print(s) })
	}

	opts := experiments.Options{Seed: *seed}
	if *telem {
		opts.Telemetry = telemetry.New()
	}
	switch strings.ToLower(*scale) {
	case "tiny":
		opts.Scale = experiments.Tiny
	case "small":
		opts.Scale = experiments.Small
	default:
		return fmt.Errorf("unknown scale %q (want tiny or small)", *scale)
	}
	if *datasets != "" {
		opts.Datasets = strings.Split(*datasets, ",")
	}
	if *victims != "" {
		opts.VictimArchs = strings.Split(*victims, ",")
	}

	var outFile *os.File
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		outFile = f
	}
	emit := func(text string) {
		fmt.Print(text)
		if outFile != nil {
			fmt.Fprint(outFile, text)
		}
	}

	ids := experiments.IDs()
	if *expFlag != "all" {
		ids = strings.Split(*expFlag, ",")
	}
	for _, id := range ids {
		start := time.Now() //duolint:allow walltime operator-facing progress timing; never feeds a result
		tab, err := experiments.Run(strings.TrimSpace(id), opts)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if *markdown {
			emit(tab.Markdown() + "\n")
		} else {
			emit(tab.String() + "\n")
		}
		emit(fmt.Sprintf("(%s finished in %v)\n\n", id, time.Since(start).Round(time.Millisecond))) //duolint:allow walltime operator-facing progress timing; never feeds a result
	}
	if opts.Telemetry != nil {
		emit(opts.Telemetry.Summary())
	}
	return nil
}
