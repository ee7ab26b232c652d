package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"mrtext"
	"mrtext/internal/core/freqbuf"
)

// Repetition counts and sizes the smoke test lowers. setupReps set-ups are
// timed per run and their median reported, because a single set-up is one
// sample of a noisy quantity; minReps bounds the timed repetitions from
// below whatever -seconds says, minTracedPairs those of the traced pass;
// serveWarmupJobs jobs precede the timed ones of the served workload;
// checkInputBytes sizes the oracle's second input, small enough for the
// sequential reference executor (which needs over a second per MiB), and 0
// leaves that check out. gaugeRounds (hostspeed.go) is lowered with them.
var (
	setupReps             = 3
	minReps               = 5
	minTracedPairs        = 2
	serveWarmupJobs       = 4
	checkInputBytes int64 = 1 << 20
)

// env is one cluster with one generated input on its DFS.
type env struct {
	w          *workload
	c          *mrtext.Cluster
	input      string
	inputBytes int64
	// outputs are the previous repetition's output files, removed before
	// the next one starts.
	outputs []string
}

func newEnv(w *workload, cfg mrtext.ClusterConfig, seed, bytes int64) (*env, error) {
	c, err := mrtext.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	e := &env{w: w, c: c, input: "input.txt"}
	if err := w.generate(c, e.input, seed, bytes); err != nil {
		return nil, fmt.Errorf("generating input: %w", err)
	}
	if e.inputBytes, err = c.FS.Size(e.input); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *env) inputMiB() float64 { return float64(e.inputBytes) / mib }

// runStats is what the harness observes of one job run from outside.
type runStats struct {
	start time.Time
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
}

// run executes one job after restoring the cluster to its state before the
// previous repetition: that repetition's output files leave the DFS, every
// node gets a fresh frequent-key cache (so frequency-buffer profiling is
// paid on every run, as in the paper), and the heap is collected. Without
// removing outputs, the prototype's InvertedIndex wall drifted 5.18 s to
// 6.55 s over five repetitions and peak RSS was 2.0 GiB instead of 0.77 GiB.
func (e *env) run(job *mrtext.Job) (runStats, *mrtext.Result, error) {
	for _, name := range e.outputs {
		if err := e.c.FS.Remove(name); err != nil {
			return runStats{}, nil, fmt.Errorf("removing previous output %s: %w", name, err)
		}
	}
	e.outputs = nil
	for i := range e.c.FreqCaches {
		e.c.FreqCaches[i] = freqbuf.NewCache()
	}
	runtime.GC()

	alloc0, cpu0, t0 := totalAlloc(), cpuTime(), time.Now()
	res, err := mrtext.Run(e.c, job)
	st := runStats{start: t0, wall: time.Since(t0), cpu: cpuTime() - cpu0, alloc: totalAlloc() - alloc0}
	if err != nil {
		return st, nil, err
	}
	e.outputs = res.Outputs
	return st, res, nil
}

// readOutputs returns the job's partition outputs concatenated in partition
// order.
func (e *env) readOutputs(res *mrtext.Result) ([]byte, error) {
	var all []byte
	for p := range res.Outputs {
		b, err := mrtext.ReadOutput(e.c, res, p)
		if err != nil {
			return nil, err
		}
		all = append(all, b...)
	}
	return all, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// outcome is one child run's result: the metrics it reports, the operations
// it attempted and failed (a job run, a submission, or an oracle check that
// did not match), and what went wrong.
type outcome struct {
	metrics   map[string]float64
	detail    map[string]float64   // ungated extras for -json: minima, maxima, counts
	samples   map[string][]float64 // what the metrics summarize, for -json
	attempted int
	failed    int
	problems  []string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, detail: map[string]float64{}, samples: map[string][]float64{}}
}

// latencyMetrics reports the median and the 90th percentile of the jobs'
// latencies as their callers saw them, with the sample count and extremes
// beside them.
func (o *outcome) latencyMetrics(seconds []float64) {
	o.metrics["job_latency_p50_s"] = median(seconds)
	o.metrics["job_latency_p90_s"] = quantile(seconds, 0.9)
	o.detail["reps"] = float64(len(seconds))
	o.detail["job_latency_min_s"], o.detail["job_latency_max_s"] = minMax(seconds)
}

func (o *outcome) setupMetrics(seconds []float64) {
	o.metrics["setup_s"] = median(seconds)
	o.detail["setup_min_s"], o.detail["setup_max_s"] = minMax(seconds)
}

// rawMetrics puts beside the metrics what they were scaled from: the median
// job wall and set-up as the clock gave them, and the median slowdowns of
// the host against the reference.
func (o *outcome) rawMetrics(walls, setups, slowdowns, cpuSlowdowns []float64) {
	o.detail["raw_job_wall_s"], o.detail["raw_setup_s"] = median(walls), median(setups)
	o.detail["host_slowdown"], o.detail["host_cpu_slowdown"] = median(slowdowns), median(cpuSlowdowns)
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// runBatch measures one batch workload with tracing off.
func runBatch(w *workload, seed int64, scale float64, budget time.Duration) (*outcome, error) {
	o := newOutcome()

	// Every timed section lies between two readings of the host's speed and
	// is reported at reference speed (hostspeed.go); the reading after one
	// section is the reading before the next.
	gauge := newHostGauge()
	last := gauge.read()
	var e *env
	var setups, rawSetups []float64
	for i := 0; i < setupReps; i++ {
		e = nil // let the previous cluster and its dataset be collected
		cpu0, t0 := cpuTime(), time.Now()
		var err error
		if e, err = newEnv(w, w.cluster(), seed, w.inputBytes(scale)); err != nil {
			return nil, err
		}
		if _, _, err := e.run(w.job(e.input)); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		raw, cpu := time.Since(t0).Seconds(), (cpuTime() - cpu0).Seconds()
		next := gauge.read()
		slow, _ := slowdown(last, next)
		last = next
		rawSetups = append(rawSetups, raw)
		setups = append(setups, atReferenceSpeed(raw, cpu, slow))
	}

	var walls, cpus, allocs, rawWalls, rawCPUs, slowdowns, cpuSlowdowns []float64
	var digests []string
	var lastOut []byte
	deadline := time.Now().Add(budget)
	for rep := 0; rep < minReps || time.Now().Before(deadline); rep++ {
		o.attempted++
		st, res, err := e.run(w.job(e.input))
		next := gauge.read()
		slow, cpuSlow := slowdown(last, next)
		last = next
		if err != nil {
			o.fail("repetition %d: %v", o.attempted, err)
			continue
		}
		out, err := e.readOutputs(res)
		if err != nil {
			o.fail("repetition %d: reading output: %v", o.attempted, err)
			continue
		}
		rawWalls = append(rawWalls, st.wall.Seconds())
		rawCPUs = append(rawCPUs, st.cpu.Seconds())
		slowdowns = append(slowdowns, slow)
		cpuSlowdowns = append(cpuSlowdowns, cpuSlow)
		walls = append(walls, atReferenceSpeed(st.wall.Seconds(), st.cpu.Seconds(), slow))
		cpus = append(cpus, st.cpu.Seconds()/cpuSlow)
		allocs = append(allocs, float64(st.alloc))
		digests = append(digests, digest(out))
		lastOut = out
	}
	if len(walls) == 0 {
		return o, nil
	}

	o.samples["job_wall_s"], o.samples["job_cpu_s"], o.samples["setup_s"] = walls, cpus, setups
	o.samples["raw_job_wall_s"], o.samples["raw_job_cpu_s"], o.samples["raw_setup_s"] = rawWalls, rawCPUs, rawSetups
	o.samples["host_slowdown"], o.samples["host_cpu_slowdown"] = slowdowns, cpuSlowdowns
	wall := median(walls)
	gib := float64(e.inputBytes) / (1 << 30)
	o.metrics["job_wall_s"] = wall
	o.metrics["input_mb_per_s"] = e.inputMiB() / wall
	o.metrics["cpu_s_per_gib"] = median(cpus) / gib
	o.metrics["alloc_mb_per_input_mb"] = median(allocs) / float64(e.inputBytes)
	// Read before the oracle runs: the reference executor's garbage is not
	// the program's footprint.
	o.metrics["peak_rss_mb"] = peakRSSMiB()
	// One job runs at a time, so the caller's latency is the job's wall and
	// the rate is what back-to-back jobs reach, hygiene between them left out.
	o.metrics["jobs_per_s"] = float64(len(walls)) / sum(walls)
	o.latencyMetrics(walls)
	o.setupMetrics(setups)
	o.detail["input_mib"] = e.inputMiB()
	o.rawMetrics(rawWalls, rawSetups, slowdowns, cpuSlowdowns)

	for i, d := range digests {
		if d != digests[0] {
			o.fail("repetition %d output digest %s differs from the first repetition's %s", i+1, d, digests[0])
		}
	}
	input, err := e.c.FS.ReadFile(e.input)
	if err != nil {
		return nil, err
	}
	o.checkNaive(w.app, input, lastOut)
	o.checkReference(w, seed)
	return o, nil
}

// checkNaive compares the distinct keys and value total of a job's output
// with the naive program's over the same input.
func (o *outcome) checkNaive(a app, input, output []byte) {
	o.attempted++
	want, err := a.naive(input)
	if err != nil {
		o.fail("naive check: %v", err)
		return
	}
	got, err := a.tallyOutput(output)
	if err != nil {
		o.fail("naive check: %v", err)
		return
	}
	if got != want {
		o.fail("naive check: job output has %d keys totalling %d, naive program %d keys totalling %d",
			got.keys, got.total, want.keys, want.total)
	}
}

// checkReference runs the workload's job configuration on a small same-seed
// input and requires every partition to be byte-identical to the sequential
// reference executor's. The check cluster uses a quarter of the block size,
// so the small input still spans several map tasks.
func (o *outcome) checkReference(w *workload, seed int64) {
	if checkInputBytes == 0 {
		return
	}
	o.attempted++
	cfg := w.cluster()
	cfg.BlockSize /= 4
	e, err := newEnv(w, cfg, seed, checkInputBytes)
	if err != nil {
		o.fail("reference check: %v", err)
		return
	}
	_, res, err := e.run(w.job(e.input))
	if err != nil {
		o.fail("reference check: %v", err)
		return
	}
	want, err := mrtext.RunReference(e.c, w.job(e.input))
	if err != nil {
		o.fail("reference check: reference executor: %v", err)
		return
	}
	if len(want) != len(res.Outputs) {
		o.fail("reference check: %d partitions, reference has %d", len(res.Outputs), len(want))
		return
	}
	for p := range res.Outputs {
		got, err := mrtext.ReadOutput(e.c, res, p)
		if err != nil {
			o.fail("reference check: reading partition %d: %v", p, err)
			return
		}
		if !bytes.Equal(got, want[p]) {
			o.fail("reference check: partition %d differs from the reference executor (%d vs %d bytes)", p, len(got), len(want[p]))
			return
		}
	}
}
