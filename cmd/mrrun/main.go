// Command mrrun runs one benchmark application on the simulated cluster
// and prints its timing, cost breakdown and counters.
//
// Usage:
//
//	mrrun [flags] <app>
//
// where <app> is one of: wordcount, invertedindex, wordpostag,
// accesslogsum, accesslogjoin, pagerank, syntext.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"mrtext"
	"mrtext/internal/mrserve"
	"mrtext/internal/pprofserve"
)

func main() {
	var (
		nodes     = flag.Int("nodes", 6, "cluster nodes")
		freq      = flag.Bool("freqbuf", false, "enable frequency-buffering")
		spill     = flag.Bool("spillmatcher", false, "enable the spill-matcher")
		megabytes = flag.Int64("mb", 16, "input size in MiB")
		bufKB     = flag.Int64("buffer-kb", 2048, "map-side spill buffer size in KiB")
		reducers  = flag.Int("reducers", 0, "reduce tasks (0 = cluster slots)")
		posIter   = flag.Int("pos-iterations", 8, "WordPOSTag tagger iterations")
		cpu       = flag.Int("syntext-cpu", 4, "SynText CPU factor")
		storage   = flag.Float64("syntext-storage", 0.5, "SynText storage intensity [0,1]")
		fast      = flag.Bool("fast", false, "disable disk/network throttling")
		verbose   = flag.Bool("v", false, "print per-counter details")
		traceOut  = flag.String("trace", "", "write a Chrome/Perfetto trace of the job to this file")
		gantt     = flag.Bool("gantt", false, "print a terminal Gantt chart of the job timeline")
		traceRep  = flag.Bool("trace-report", false, "print the critical-path blame report and a Gantt chart with the critical path highlighted")
		metricsJS = flag.String("metrics-json", "", "write the final metrics snapshot (counters + histogram summaries) as JSON to this file")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof and live expvar metrics on this address (e.g. localhost:6060)")
		chaosSeed = flag.Int64("chaos-seed", 0, "fault-injection seed (schedule is deterministic per seed)")
		chaosFail = flag.Float64("chaos-fail-rate", 0, "per-attempt fault probability in [0,1] (0 disables injection)")
		chaosKill = flag.Int("chaos-kill-node", -1, "kill this node mid-job (-1: no kill)")
		speculate = flag.Bool("speculation", false, "launch speculative backup attempts for straggler tasks")
		shufBuf   = flag.Int64("shuffle-buffer", 32, "staging buffer budget per job in MiB; a segment that does not fit is direct-fetched from its source disk")
		ingChunk  = flag.Int64("ingest-chunk-kb", 0, "split reader arena chunk in KiB (0 = default 1024)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mrrun [flags] <app>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	app := strings.ToLower(flag.Arg(0))

	if *pprofAddr != "" {
		pprofserve.Serve(*pprofAddr, func(err error) {
			fmt.Fprintln(os.Stderr, "mrrun: pprof:", err)
		})
	}

	cfg := mrtext.LocalSmallCluster()
	cfg.Nodes = *nodes
	if *fast {
		fcfg := mrtext.FastCluster(*nodes)
		cfg = fcfg
	}
	chaosOn := *chaosFail > 0 || *chaosKill >= 0
	if chaosOn {
		cfg.Chaos = &mrtext.ChaosConfig{
			Seed:     *chaosSeed,
			FailRate: *chaosFail,
			KillNode: *chaosKill,
		}
	}
	c, err := mrtext.NewCluster(cfg)
	if err != nil {
		die(err)
	}

	// The CLI builds its job through the same Spec path as an mrserve
	// submission, so flags and the HTTP API share one source of truth for
	// validation, dataset generation, and knob application.
	spec := mrserve.Spec{
		App:             app,
		InputMB:         *megabytes,
		Reducers:        *reducers,
		SpillBufferKB:   *bufKB,
		FreqBuf:         *freq,
		SpillMatcher:    *spill,
		Speculation:     *speculate,
		PosIterations:   *posIter,
		SynTextCPU:      *cpu,
		SynTextStorage:  *storage,
		ShuffleBufferMB: *shufBuf,
		IngestChunkKB:   *ingChunk,
	}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		die(err)
	}
	if err := mrserve.EnsureDatasets(c, mrserve.NewDatasetCache(), &spec); err != nil {
		die(err)
	}
	job, err := spec.BuildJob(c.Nodes())
	if err != nil {
		die(err)
	}

	var tr *mrtext.Tracer
	if *traceOut != "" || *gantt || *traceRep {
		tr = mrtext.NewTracer(0)
		job.Trace = tr
	}

	res, err := mrtext.Run(c, job)
	if err != nil {
		die(err)
	}
	fmt.Printf("%s: wall %s (map %s, shuffle+reduce %s), %d map + %d reduce tasks\n",
		res.Job, res.Wall.Round(1e6), res.MapWall.Round(1e6), res.ReduceWall.Round(1e6),
		res.MapTasks, res.ReduceTasks)
	fmt.Printf("placement: %d data-local, %d stolen map tasks\n",
		res.LocalMapTasks, res.StolenMapTasks)
	fmt.Printf("shuffle: %d segments staged early, staging peak %d B, %d fetch retries\n",
		res.ShuffleEarlySegments, res.ShuffleStagingPeak, res.ShuffleFetchRetries)
	if chaosOn || *speculate {
		fmt.Printf("fault tolerance: %d/%d attempts failed, %d retries, %d speculative (%d won), %d recovered, dead nodes %v\n",
			res.FailedAttempts, res.MapAttempts+res.ReduceAttempts, res.TaskRetries,
			res.SpeculativeTasks, res.SpeculativeWins, res.RecoveredMapTasks, res.DeadNodes)
	}
	fmt.Printf("map idle %.1f%%, support idle %.1f%%\n",
		100*res.MapIdleFraction(), 100*res.SupportIdleFraction())
	fmt.Print(res.Agg.Breakdown())
	if *verbose {
		for _, name := range res.Agg.CounterNames() {
			fmt.Printf("%-24s %d\n", name, res.Agg.Counters[name])
		}
	}
	if *traceRep {
		report, err := mrtext.AnalyzeTrace(tr)
		if err != nil {
			die(err)
		}
		if err := report.WriteText(os.Stdout); err != nil {
			die(err)
		}
		if err := mrtext.WriteGanttMarked(os.Stdout, tr, report, 100); err != nil {
			die(err)
		}
	} else if *gantt {
		if err := mrtext.WriteGantt(os.Stdout, tr, 100); err != nil {
			die(err)
		}
	}
	if *metricsJS != "" {
		if err := writeMetricsFile(*metricsJS, res); err != nil {
			die(err)
		}
		fmt.Printf("wrote metrics snapshot to %s\n", *metricsJS)
	}
	if *traceOut != "" {
		if err := writeTraceFile(*traceOut, tr); err != nil {
			die(err)
		}
		if d := tr.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "mrrun: warning: trace ring overflowed, %d events dropped\n", d)
		}
		fmt.Printf("wrote trace to %s (load it at ui.perfetto.dev)\n", *traceOut)
	}
}

func writeMetricsFile(path string, res *mrtext.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := mrtext.WriteMetricsDump(f, res.Agg); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

func writeTraceFile(path string, tr *mrtext.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := mrtext.WriteTrace(f, tr); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "mrrun:", err)
	os.Exit(1)
}
