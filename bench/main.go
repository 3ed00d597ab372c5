// Command bench is the repository's one benchmark: four named workloads over
// the real attack and serving surface, end-to-end metrics from an untraced
// run, and per-layer metrics from a traced run whose spans are recorded by
// decorators around each layer's public interface. BENCHMARK.json at the
// repository root names it; README.md in this directory explains the
// workloads, the metrics and which layer should move which number.
//
//	go run ./bench -workload attack_query -seed 1 [-trace 1] [-out f.json]
//	go run ./bench -workload all -out a.json
//	go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	spans    string
	smoke    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: one of the names in BENCHMARK.json, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is derived from")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long one run measures")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.StringVar(&o.out, "out", "", "also write the results, with the environment stamp, to this JSON file")
	flag.StringVar(&o.spans, "spans", "", "traced run: write the spans as JSONL here (default .bench_build/spans_<workload>.jsonl)")
	flag.BoolVar(&o.smoke, "smoke", false, "run the tiny smoke sizing (numbers mean nothing)")
	cmp := flag.Bool("compare", false, "compare two -out files given as arguments; exit 1 when the second is beyond a bound")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json")
	flag.Parse()

	switch {
	case *manifest:
		doc, err := manifestJSON()
		exitOn(err)
		os.Stdout.Write(doc)
	case *cmp:
		if flag.NArg() != 2 {
			exitOn(fmt.Errorf("-compare takes two result files"))
		}
		a, err := readReport(flag.Arg(0))
		exitOn(err)
		b, err := readReport(flag.Arg(1))
		exitOn(err)
		if !compare(os.Stdout, a, b) {
			os.Exit(1)
		}
	default:
		exitOn(run(os.Stdout, o))
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
}

// run executes the named workload (or all four in order), prints every
// metric as "name value unit" and, last, one JSON line per workload with
// exactly the keys correct, attempted, failed and metrics.
func run(w io.Writer, o options) error {
	selected := workloads
	if o.workload != "all" {
		wl := workloadByName(o.workload)
		if wl == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []*workload{wl}
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	z := fullSizing
	if o.smoke {
		z = smokeSizing
	}

	rep := report{Env: stamp(o.seed, z)}
	fmt.Fprintf(w, "# %s %s/%s numcpu=%d gomaxprocs=%d parallel_workers=%d commit=%s seed=%d shapes=%s\n",
		rep.Env.Go, rep.Env.GOOS, rep.Env.GOARCH, rep.Env.NumCPU, rep.Env.GOMAXPROCS, rep.Env.ParallelWorkers, rep.Env.Commit, o.seed, z.Name)
	for _, wl := range selected {
		var res *result
		var err error
		if o.trace == 0 {
			res, err = runUntraced(wl, z, o.seed, o.seconds)
		} else {
			spans := o.spans
			if spans == "" {
				spans = filepath.Join(".bench_build", "spans_"+wl.Name+".jsonl")
			}
			res, err = runTraced(wl, z, o.seed, o.seconds, spans)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", wl.Name, err)
		}
		rep.Results = append(rep.Results, res)
		res.print(w)
	}
	if o.out != "" {
		raw, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	// The driver reads the last line of the output.
	for _, res := range rep.Results {
		line, err := json.Marshal(res.verdict)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", line)
	}
	return nil
}

func (res *result) print(w io.Writer) {
	fmt.Fprintf(w, "# workload %s trace %d: %d attempted, %d failed\n", res.Workload, res.Trace, res.Attempted, res.Failed)
	for _, note := range res.Notes {
		fmt.Fprintf(w, "# FAILED %s\n", note)
	}
	for _, key := range []string{"measured_for_seconds", "queries", "attacks", "slices", "latency_groups", "latency_samples", "latency_tail_level", "latency_tail_ms", "machine_slowdown"} {
		fmt.Fprintf(w, "# %s %g\n", key, res.Samples[key])
	}
	for _, r := range res.Rates {
		fmt.Fprintf(w, "# offered %g q/s: %d requests, p50 %.3f ms, p95 %.3f ms, generator lag p95 %.3f ms (growing: %t), failed share %g, pass: %t\n",
			r.RateQPS, r.Requests, r.P50Ms, r.P95Ms, r.LagP95Ms, r.LagGrowing, r.FailShare, r.Pass)
	}
	for _, d := range res.defs() {
		fmt.Fprintf(w, "%s %g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
}
