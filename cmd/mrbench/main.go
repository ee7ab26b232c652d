// Command mrbench regenerates the paper's tables and figures by id.
//
// Usage:
//
//	mrbench [flags] <experiment> [<experiment>...]
//	mrbench -list
//
// Experiments: fig2 table2 fig3 fig7 fig8 fig9 fig10 table3 table4
// spillmodel, or "all".
//
// mrbench -shufflebench runs the pipelined-shuffle harness — the same
// throttled SynText job under the serial shuffle and under copier pools
// of fan-out 1, 2 and 4 — plus a weak-scaling sweep over
// -shufflebench-nodes simulated node counts, and writes
// BENCH_shuffle.json. -shufflebench-assert turns the sweep into a CI
// gate on copier-steal activity.
//
// Whole-job and per-layer performance is measured by the end-to-end
// benchmark (BENCHMARK.json, bench/README.md), not here.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"mrtext/internal/experiments"
	"mrtext/internal/pprofserve"
	"mrtext/internal/trace"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list available experiments and exit")
		scale     = flag.Float64("scale", 1.0, "dataset scale multiplier (1.0 ≈ 16 MiB corpus)")
		nodes     = flag.Int("nodes", 0, "override cluster node count (0 = experiment default)")
		posIter   = flag.Int("pos-iterations", 8, "WordPOSTag CPU-intensity (tagger rescoring iterations)")
		seed      = flag.Int64("seed", 1, "generator seed offset")
		fast      = flag.Bool("fast", false, "disable disk/network throttling (not paper-faithful; for smoke tests)")
		shufbench = flag.Bool("shufflebench", false, "run the pipelined-shuffle harness and write -shufflebench-out")
		shbOut    = flag.String("shufflebench-out", "BENCH_shuffle.json", "output file for -shufflebench")
		shbIters  = flag.Int("shufflebench-iters", 3, "iterations per shuffle configuration for -shufflebench")
		shbMB     = flag.Int64("shufflebench-mb", 16, "SynText corpus size in MiB for -shufflebench")
		shbNodes  = flag.String("shufflebench-nodes", "64,128,256", "comma-separated node counts for the -shufflebench weak-scaling sweep (empty = skip the sweep)")
		shbBase   = flag.Bool("shufflebench-base", true, "run the classic 4-node copier-fan-out section of -shufflebench")
		shbAssert = flag.Bool("shufflebench-assert", false, "exit nonzero unless copier-steal activity at copiers-4 stays within the copiers-1 bound in every cell (CI gate)")
		traceOut  = flag.String("trace", "", "record every job run and write one Chrome/Perfetto trace to this file")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof and live expvar metrics on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		pprofserve.Serve(*pprofAddr, func(err error) {
			fmt.Fprintln(os.Stderr, "mrbench: pprof:", err)
		})
	}
	var tr *trace.Tracer
	if *traceOut != "" {
		// Experiments construct their jobs internally; the process-wide
		// default tracer is how they inherit tracing.
		tr = trace.New(0)
		trace.SetDefault(tr)
	}

	if *list {
		for _, n := range experiments.Names() {
			fmt.Println(n)
		}
		return
	}
	if *shufbench {
		scaleNodes, err := parseNodeList(*shbNodes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mrbench: shufflebench: %v\n", err)
			os.Exit(2)
		}
		if err := runShuffleBench(*shbOut, *shbIters, *shbMB, scaleNodes, *shbBase, *shbAssert); err != nil {
			fmt.Fprintf(os.Stderr, "mrbench: shufflebench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: mrbench [flags] <experiment>... ; try -list")
		os.Exit(2)
	}
	if len(args) == 1 && args[0] == "all" {
		args = experiments.Names()
	}

	env := experiments.DefaultEnv()
	env.Scale = *scale
	env.POSIterations = *posIter
	env.Seed = *seed
	env.Out = os.Stdout
	if *fast {
		cfg := env.Cluster
		cfg.DiskThrottle = nil
		cfg.Net.BytesPerSec = 0
		cfg.Net.Latency = 0
		env.Cluster = cfg
	}
	if *nodes > 0 {
		env.Cluster.Nodes = *nodes
	}

	for _, name := range args {
		fmt.Printf("==== %s (scale %.2g, %d nodes) ====\n", name, env.Scale, env.Cluster.Nodes)
		start := time.Now()
		if err := experiments.Run(name, env); err != nil {
			fmt.Fprintf(os.Stderr, "mrbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("==== %s done in %s ====\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	if tr != nil {
		if err := writeTraceFile(*traceOut, tr); err != nil {
			fmt.Fprintf(os.Stderr, "mrbench: trace: %v\n", err)
			os.Exit(1)
		}
		if d := tr.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "mrbench: warning: trace ring overflowed, %d events dropped\n", d)
		}
		fmt.Printf("wrote trace to %s (load it at ui.perfetto.dev)\n", *traceOut)
	}
}

// parseNodeList parses the -shufflebench-nodes value: a comma-separated
// list of positive node counts, or empty to skip the sweep.
func parseNodeList(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad node count %q in -shufflebench-nodes", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func writeTraceFile(path string, tr *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteJSON(f, tr.Events()); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}
