package main

import (
	"errors"
	"fmt"
	"io"

	"mrtext"
	"mrtext/internal/textgen"
)

// app selects the application a workload runs and, with it, the generator
// of its input and the naive program its output is checked against.
type app int

const (
	appWordCount app = iota
	appInvertedIndex
	appLogSum
)

// workload is one named cell of the benchmark: an application, an input
// size, a cluster shape and a job configuration.
type workload struct {
	// name is the workload's name in BENCHMARK.json, which also says why
	// it exists.
	name string
	app  app
	// inputMiB is the input size at -scale 1. The sizes are a quarter of
	// the ones the workloads were designed at (32/24/16 MiB; 192 MiB for
	// logsum_fast, which keeps half), so that three set-ups, the timed
	// repetitions and the oracle fit a 25 s run.
	inputMiB float64
	cluster  func() mrtext.ClusterConfig
	// tune applies the workload's job configuration to a fresh job; nil
	// leaves the application's defaults.
	tune func(*mrtext.Job)
	// serve runs the jobs through the mrserve HTTP API instead of
	// mrtext.Run; inputMiB is then the size of each submitted job.
	serve bool
}

func fastCluster() mrtext.ClusterConfig { return mrtext.FastCluster(4) }

// paperCluster is the paper's local testbed (6 nodes, 35/70 MB/s disks with
// 4 ms per operation, gigabit fabric) with 1 MiB blocks instead of 4 MiB:
// at a quarter of the design input size that keeps one map task per node
// and, with paperSpillBuffer, about four spills per map task.
func paperCluster() mrtext.ClusterConfig {
	cfg := mrtext.LocalSmallCluster()
	cfg.BlockSize = 1 << 20
	return cfg
}

const paperSpillBuffer = 2 << 20

var workloads = []workload{
	{
		name:     "wc_fast",
		app:      appWordCount,
		inputMiB: 8,
		cluster:  fastCluster,
	},
	{
		name:     "wc_paper_opt",
		app:      appWordCount,
		inputMiB: 6,
		cluster:  paperCluster,
		tune: func(j *mrtext.Job) {
			j.SpillBufferBytes = paperSpillBuffer
			j.FreqBuf = mrtext.FreqBufText()
			j.SpillMatcher = true
		},
	},
	{
		name:     "ii_paper",
		app:      appInvertedIndex,
		inputMiB: 4,
		cluster:  paperCluster,
		tune:     func(j *mrtext.Job) { j.SpillBufferBytes = paperSpillBuffer },
	},
	{
		name:     "logsum_fast",
		app:      appLogSum,
		inputMiB: 96,
		cluster:  fastCluster,
	},
	{
		name:     "serve_small_jobs",
		app:      appWordCount,
		inputMiB: 1,
		cluster:  fastCluster,
		serve:    true,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// inputBytes is the workload's input size at the given scale. Served jobs
// are sized in whole MiB by the API, so scale changes their count instead.
func (w *workload) inputBytes(scale float64) int64 {
	if w.serve {
		return int64(w.inputMiB) << 20
	}
	n := int64(w.inputMiB * scale * (1 << 20))
	if n < 64<<10 {
		n = 64 << 10
	}
	return n
}

// writeInput writes about bytes bytes of the workload's input, made from
// seed, to out. The seed reaches the program only through these bytes.
func (w *workload) writeInput(out io.Writer, seed, bytes int64) error {
	var err error
	if w.app == appLogSum {
		cfg := textgen.DefaultLog()
		cfg.Seed = seed
		_, err = textgen.UserVisits(out, cfg, bytes)
	} else {
		cfg := textgen.DefaultCorpus()
		cfg.Seed = seed
		_, err = textgen.Corpus(out, cfg, bytes)
	}
	return err
}

// generate stores the workload's input in the cluster's DFS under name.
func (w *workload) generate(c *mrtext.Cluster, name string, seed, bytes int64) error {
	f, err := c.FS.Create(name, 0)
	if err != nil {
		return err
	}
	if err := w.writeInput(f, seed, bytes); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

// job builds the workload's job over the named input.
func (w *workload) job(input string) *mrtext.Job {
	var j *mrtext.Job
	switch w.app {
	case appInvertedIndex:
		j = mrtext.InvertedIndex(input)
	case appLogSum:
		j = mrtext.AccessLogSum(input)
	default:
		j = mrtext.WordCount(input)
	}
	if w.tune != nil {
		w.tune(j)
	}
	return j
}
