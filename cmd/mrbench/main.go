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
// Whole-job and per-layer performance is measured by the end-to-end
// benchmark (BENCHMARK.json, bench/README.md), not here.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
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
