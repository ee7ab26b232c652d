package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"mrtext"
	"mrtext/internal/mrserve"
	"mrtext/internal/trace"
	"mrtext/internal/trace/critpath"
)

// traceDir is where the traced pass leaves its span files: bench/out/ under
// the repository root, found from the working directory.
var traceDir = func() string {
	if _, err := os.Stat("bench"); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}()

// tracedRun is one job run observed through a probe.
type tracedRun struct {
	st            runStats
	res           *mrtext.Result
	probe         *probe
	before, after ioStats
	outputBytes   int64
}

// observe runs one job, through a probe when p is non-nil.
func observe(e *env, o *outcome, job *mrtext.Job, p *probe) (tracedRun, error) {
	if p != nil {
		p.wrap(job)
	}
	tr := tracedRun{probe: p, before: e.ioStats()}
	o.attempted++
	var err error
	if tr.st, tr.res, err = e.run(job); err != nil {
		return tr, err
	}
	tr.after = e.ioStats()
	if p != nil {
		start := tr.st.start.Sub(p.log.epoch)
		p.close(start, start+tr.st.wall)
	}
	for _, name := range tr.res.Outputs {
		n, err := e.c.FS.Size(name)
		if err != nil {
			return tr, err
		}
		tr.outputBytes += n
	}
	return tr, nil
}

// alternate runs the job plain and probed in turn until the budget is
// spent, at least minTracedPairs times each, so that drift over the pass
// falls on both alike; each set is returned ordered by wall time.
func alternate(e *env, budget time.Duration, log *spanLog, o *outcome) (plain, probed []tracedRun, err error) {
	deadline := time.Now().Add(budget)
	for len(probed) < minTracedPairs || time.Now().Before(deadline) {
		tr, err := observe(e, o, e.w.job(e.input), nil)
		if err != nil {
			return nil, nil, err
		}
		plain = append(plain, tr)
		if tr, err = observe(e, o, e.w.job(e.input), newProbe(log, e.c.FS.BlockSize())); err != nil {
			return nil, nil, err
		}
		probed = append(probed, tr)
	}
	byWall := func(runs []tracedRun) {
		sort.Slice(runs, func(i, j int) bool { return runs[i].st.wall < runs[j].st.wall })
	}
	byWall(plain)
	byWall(probed)
	return plain, probed, nil
}

func medianRun(runs []tracedRun) tracedRun { return runs[(len(runs)-1)/2] }

func medianWall(runs []tracedRun) float64 {
	ws := make([]float64, len(runs))
	for i, r := range runs {
		ws[i] = r.st.wall.Seconds()
	}
	return median(ws)
}

// runTraced is the traced pass: it reports the per-layer metrics and writes
// the span file. End-to-end numbers are never taken from it.
func runTraced(w *workload, seed int64, scale float64, budget time.Duration, layers []metricDecl) (*outcome, error) {
	o := newOutcome()
	for _, d := range layers {
		o.metrics[d.Name] = 0 // a layer the workload does not exercise stays 0
	}
	log := newSpanLog()

	var e *env
	if w.serve {
		// The served jobs are built inside the server, out of the probe's
		// reach: the HTTP load gives the mrserve metrics, and the same
		// 1 MiB job run directly on the server's cluster gives the rest.
		s, err := startService(w, seed)
		if err != nil {
			return nil, err
		}
		defer s.close()
		if err := servedLayer(s, budget/2, scale, log, o); err != nil {
			return nil, err
		}
		e, budget = s.e, budget/2
	} else {
		var err error
		if e, err = newEnv(w, w.cluster(), seed, w.inputBytes(scale)); err != nil {
			return nil, err
		}
	}
	if _, _, err := e.run(w.job(e.input)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	detailRun, err := jobLayers(e, seed, budget, log, o)
	if err != nil {
		return nil, err
	}
	if err := log.write(filepath.Join(traceDir, "trace-"+w.name+".json"), detailRun); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return o, nil
}

// jobLayers measures the W, R and D metrics of the environment's job: the
// budget goes on alternating untraced and probed runs (the first are the
// reference the tracing overhead is taken against), then come one run each
// with the program's own tracer, on one processor and with the paper's
// optimizations off, then the drills. It returns the run whose per-call
// spans are worth keeping.
func jobLayers(e *env, seed int64, budget time.Duration, log *spanLog, o *outcome) (detailRun int32, err error) {
	m := o.metrics
	plain, probed, err := alternate(e, budget, log, o)
	if err != nil {
		return 0, err
	}
	base := medianWall(plain)
	m["trace.overhead_frac"] = (medianWall(probed) - base) / base

	tr := medianRun(probed)
	tr.probe.metrics(tr.res, m)
	resultMetrics(e, tr.res, tr.before, tr.after, m)
	m["reduce.output_bytes_per_input_byte"] = float64(tr.outputBytes) / float64(e.inputBytes)

	// The program's own tracer on top of the probe.
	tracer := mrtext.NewTracer(1 << 20)
	job := e.w.job(e.input)
	job.Trace = tracer
	traced, err := observe(e, o, job, newProbe(log, e.c.FS.BlockSize()))
	if err != nil {
		return 0, err
	}
	if err := tracerMetrics(tracer, traced.st.wall.Seconds(), base, m); err != nil {
		return 0, err
	}

	// The same job on one processor.
	procs := runtime.GOMAXPROCS(1)
	p1, err := observe(e, o, e.w.job(e.input), nil)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return 0, err
	}
	m["runner.p1_wall_s"] = p1.st.wall.Seconds()
	m["runner.parallel_speedup"] = p1.st.wall.Seconds() / base

	// The same input with frequency-buffering and the spill-matcher off.
	if job := e.w.job(e.input); job.FreqBuf != nil || job.SpillMatcher {
		job.FreqBuf, job.SpillMatcher = nil, false
		off, err := observe(e, o, job, nil)
		if err != nil {
			return 0, err
		}
		m["freqbuf.opt_over_baseline_wall"] = base / off.st.wall.Seconds()
	}

	spillsPerTask := ratio(m["spillbuf.spills"], m["runner.map_tasks"])
	return tr.probe.run, runDrills(e, e.w.job(e.input), seed, spillsPerTask, medianRun(plain).st.cpu, log, m)
}

// tracerMetrics reports what the program's own tracer cost and recorded in
// one run, and what its critical-path analysis makes of the recording.
func tracerMetrics(tracer *mrtext.Tracer, wall, base float64, m map[string]float64) error {
	m["trace.program_tracer_overhead_frac"] = (wall - base) / base
	events := tracer.Events()
	m["trace.events"] = float64(len(events))
	m["trace.dropped"] = float64(tracer.Dropped())

	// The spill threshold each map task ended on: the payload, in basis
	// points, of its last spill-decision instant.
	final := map[[2]int32]float64{}
	for _, ev := range events {
		if ev.Kind == trace.KindSpillDecision {
			final[[2]int32{ev.Node, ev.Task}] = float64(ev.Arg) / 1e4
		}
	}
	pcts := make([]float64, 0, len(final))
	for _, pct := range final {
		pcts = append(pcts, pct)
	}
	m["spillmatch.final_pct_p50"] = median(pcts)

	t0 := time.Now()
	rep, err := mrtext.AnalyzeTrace(tracer)
	if err != nil {
		return fmt.Errorf("critical-path analysis: %w", err)
	}
	m["critpath.analyze_ms"] = float64(time.Since(t0)) / 1e6
	other := rep.Map.Causes[critpath.CauseScheduler] + rep.Reduce.Causes[critpath.CauseScheduler]
	m["critpath.scheduler_other_frac"] = ratio(other.Seconds(), rep.JobWall.Seconds())
	return nil
}

// servedLayer drives the HTTP load of the traced pass: half of it without
// client spans, half with, and from the second half the mrserve metrics.
func servedLayer(s *service, budget time.Duration, scale float64, log *spanLog, o *outcome) error {
	m := o.metrics
	warm, _ := s.load(serveWarmupJobs, nil)
	for _, sm := range warm {
		if sm.err != nil {
			return fmt.Errorf("warm-up: %w", sm.err)
		}
	}
	n := serveJobs(budget, scale) / 2
	plain, _ := s.load(n, nil)
	o.latencies(plain)
	runtime.GC()
	rss0 := currentRSSMiB()
	samples, _ := s.load(n, log)
	runtime.GC()
	m["mrserve.rss_mb_per_100_jobs"] = (currentRSSMiB() - rss0) / float64(n) * 100
	if len(o.latencies(samples)) == 0 {
		return fmt.Errorf("no served job completed")
	}
	var submit, queued, running []float64
	for _, sm := range samples {
		if sm.err != nil || sm.view.Started == nil || sm.view.Finished == nil {
			continue
		}
		submit = append(submit, float64(sm.submit)/1e6)
		queued = append(queued, float64(sm.view.Started.Sub(sm.view.Submitted))/1e6)
		running = append(running, float64(sm.view.Finished.Sub(*sm.view.Started))/1e6)
	}
	m["mrserve.submit_ms_p50"] = median(submit)
	m["mrserve.queue_wait_ms_p50"] = median(queued)
	m["mrserve.run_ms_p50"] = median(running)
	var tenants []mrserve.TenantView
	if err := s.getJSON("/tenants", &tenants); err != nil {
		return err
	}
	for _, t := range tenants {
		m["mrserve.rejected"] += float64(t.Rejected)
	}
	return nil
}
