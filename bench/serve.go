package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mrtext"
	"mrtext/internal/mrserve"
)

const (
	// serveJobsPerSecond sizes the timed section as a job count, not a
	// duration: finished jobs are retained by the server, so a time-bounded
	// loop would charge a faster program with more resident memory. At this
	// rate the baseline commit's timed section lasts about -seconds.
	serveJobsPerSecond = 3
	servePollInterval  = 2 * time.Millisecond
	// serveRoundJobs is how many jobs each client sends between two
	// host-speed readings: about two seconds of jobs.
	serveRoundJobs = 3
)

// serveJobs is the number of timed submissions for a run of the given
// length; -scale multiplies it because the API sizes jobs in whole MiB.
func serveJobs(budget time.Duration, scale float64) int {
	n := int(serveJobsPerSecond * budget.Seconds() * scale)
	if n < 2*minReps {
		n = 2 * minReps
	}
	return n
}

// service is an mrserve server on a fresh cluster behind an HTTP listener on
// the loopback interface, with the jobs' dataset already on the DFS.
type service struct {
	e      *env
	spec   mrserve.Spec
	srv    *mrserve.Server
	ts     *httptest.Server
	client *http.Client
}

func startService(w *workload, seed int64) (*service, error) {
	spec := mrserve.Spec{App: "wordcount", InputMB: int64(w.inputMiB)}
	spec.Normalize()
	c, err := mrtext.NewCluster(w.cluster())
	if err != nil {
		return nil, err
	}
	// The server generates a missing dataset itself, from a fixed seed;
	// writing it first under the name the spec resolves to makes the jobs
	// read this run's seeded input.
	e := &env{w: w, c: c, input: spec.Datasets()[0].Name}
	if err := w.generate(c, e.input, seed, w.inputBytes(1)); err != nil {
		return nil, fmt.Errorf("generating input: %w", err)
	}
	if e.inputBytes, err = c.FS.Size(e.input); err != nil {
		return nil, err
	}
	srv, err := mrserve.New(mrserve.Config{Cluster: c, Workers: 2})
	if err != nil {
		return nil, err
	}
	srv.Start()
	clients := runtime.GOMAXPROCS(0)
	return &service{
		e: e, spec: spec, srv: srv,
		ts: httptest.NewServer(srv.Handler()),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
		}},
	}, nil
}

func (s *service) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	s.srv.Close()
}

// jobSample is one submission as its client saw it.
type jobSample struct {
	id      string
	latency time.Duration // POST sent to terminal status seen
	submit  time.Duration // POST round trip
	view    mrserve.JobView
	err     error // refused, failed, or transport error
}

func (s *service) getJSON(path string, v any) error {
	resp, err := s.client.Get(s.ts.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// submitAndWait posts one job for the tenant and polls it to a terminal
// status. With a log it records a job span and, under it, the POST and the
// wait.
func (s *service) submitAndWait(tenant string, log *spanLog, run, lane int32) jobSample {
	body, err := json.Marshal(mrserve.SubmitRequest{Tenant: tenant, Spec: s.spec})
	if err != nil {
		return jobSample{err: err}
	}
	t0 := time.Now()
	resp, err := s.client.Post(s.ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jobSample{err: err}
	}
	var view mrserve.JobView
	derr := json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	t1 := time.Now()
	sm := jobSample{submit: t1.Sub(t0)}
	if resp.StatusCode != http.StatusAccepted {
		sm.err = fmt.Errorf("submission refused with status %d", resp.StatusCode)
		return sm
	}
	if derr != nil {
		sm.err = derr
		return sm
	}
	sm.id = view.ID
	for view.Status == mrserve.StatusQueued || view.Status == mrserve.StatusRunning {
		time.Sleep(servePollInterval)
		if err := s.getJSON("/jobs/"+sm.id, &view); err != nil {
			sm.err = err
			return sm
		}
	}
	t2 := time.Now()
	sm.latency, sm.view = t2.Sub(t0), view
	if view.Status != mrserve.StatusDone {
		sm.err = fmt.Errorf("job %s ended %s: %s", view.ID, view.Status, view.Error)
	}
	if log != nil {
		at := func(t time.Time) time.Duration { return t.Sub(log.epoch) }
		job := log.add("job", run, lane, 0, at(t0), at(t2))
		log.add("submit", run, lane, job, at(t0), at(t1))
		log.add("wait", run, lane, job, at(t1), at(t2))
	}
	return sm
}

// load runs n submissions from a closed loop of one client per core, each
// client its own tenant sending its next job when the previous one reached
// a terminal status. Samples are returned in submission order.
func (s *service) load(n int, log *spanLog) (samples []jobSample, elapsed time.Duration) {
	samples = make([]jobSample, n)
	var run int32
	if log != nil {
		run = log.newRun()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for cl := 0; cl < runtime.GOMAXPROCS(0); cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", cl)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				samples[i] = s.submitAndWait(tenant, log, run, int32(cl))
			}
		}(cl)
	}
	wg.Wait()
	return samples, time.Since(t0)
}

func (s *service) output(id string) ([]byte, error) {
	resp, err := s.client.Get(s.ts.URL + "/jobs/" + id + "/output")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET output of %s: status %d", id, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// latencies returns the latencies of the successful samples in seconds and
// records every unsuccessful one as a failed operation.
func (o *outcome) latencies(samples []jobSample) []float64 {
	var ls []float64
	for i, sm := range samples {
		o.attempted++
		if sm.err != nil {
			o.fail("submission %d: %v", i+1, sm.err)
			continue
		}
		ls = append(ls, sm.latency.Seconds())
	}
	return ls
}

// runServe measures the served workload with tracing off.
func runServe(w *workload, seed int64, scale float64, budget time.Duration) (*outcome, error) {
	o := newOutcome()

	gauge := newHostGauge()
	last := gauge.read()
	var s *service
	var setups, rawSetups []float64
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.close()
			s = nil
		}
		cpu0, t0 := cpuTime(), time.Now()
		var err error
		if s, err = startService(w, seed); err != nil {
			return nil, err
		}
		warm, _ := s.load(serveWarmupJobs, nil)
		for _, sm := range warm {
			if sm.err != nil {
				s.close()
				return nil, fmt.Errorf("warm-up: %w", sm.err)
			}
		}
		raw, cpu := time.Since(t0).Seconds(), (cpuTime() - cpu0).Seconds()
		next := gauge.read()
		slow, _ := slowdown(last, next)
		last = next
		rawSetups = append(rawSetups, raw)
		setups = append(setups, atReferenceSpeed(raw, cpu, slow))
	}
	defer s.close()

	// The jobs are sent in rounds of serveRoundJobs per client with a reading
	// of the host's speed between rounds, and every time is reported at
	// reference speed by the slowdown of its own round (hostspeed.go). The
	// round's busy share stands for that of each of its jobs.
	n := serveJobs(budget, scale)
	round := serveRoundJobs * runtime.GOMAXPROCS(0)
	var samples []jobSample
	var ls, rawLs, slowdowns, cpuSlowdowns []float64
	var elapsed, rawElapsed, cpu float64
	var alloc uint64
	for len(samples) < n {
		alloc0, cpu0 := totalAlloc(), cpuTime()
		got, took := s.load(min(round, n-len(samples)), nil)
		roundCPU, roundAlloc := (cpuTime() - cpu0).Seconds(), totalAlloc()-alloc0
		next := gauge.read()
		slow, cpuSlow := slowdown(last, next)
		last = next
		slowdowns = append(slowdowns, slow)
		cpuSlowdowns = append(cpuSlowdowns, cpuSlow)
		factor := atReferenceSpeed(1, roundCPU/took.Seconds(), slow)
		for _, l := range o.latencies(got) {
			rawLs = append(rawLs, l)
			ls = append(ls, l*factor)
		}
		samples = append(samples, got...)
		rawElapsed += took.Seconds()
		elapsed += took.Seconds() * factor
		cpu += roundCPU / cpuSlow
		alloc += roundAlloc
	}
	if len(ls) == 0 {
		return o, nil
	}
	o.samples["job_wall_s"], o.samples["setup_s"] = ls, setups
	o.samples["raw_job_wall_s"], o.samples["raw_setup_s"] = rawLs, rawSetups
	o.samples["host_slowdown"], o.samples["host_cpu_slowdown"] = slowdowns, cpuSlowdowns
	doneBytes := float64(len(ls)) * float64(s.e.inputBytes)
	// A job's wall, as its caller sees it, is its latency here: the POST and
	// the polling are the only way to run one.
	o.metrics["job_wall_s"] = median(ls)
	o.metrics["input_mb_per_s"] = doneBytes / mib / elapsed
	o.metrics["cpu_s_per_gib"] = cpu / (doneBytes / (1 << 30))
	o.metrics["alloc_mb_per_input_mb"] = float64(alloc) / doneBytes
	o.metrics["peak_rss_mb"] = peakRSSMiB()
	o.metrics["jobs_per_s"] = float64(len(ls)) / elapsed
	o.latencyMetrics(ls)
	o.setupMetrics(setups)
	o.detail["input_mib"] = s.e.inputMiB()
	o.detail["elapsed_s"], o.detail["raw_elapsed_s"] = elapsed, rawElapsed
	o.rawMetrics(rawLs, rawSetups, slowdowns, cpuSlowdowns)

	o.checkServed(s, samples)
	return o, nil
}

// checkServed requires the first and last job's outputs to be identical,
// byte-identical to the reference executor's over the same dataset, and in
// agreement with the naive program.
func (o *outcome) checkServed(s *service, samples []jobSample) {
	o.attempted++
	first, err := s.output(samples[0].id)
	if err != nil {
		o.fail("served check: %v", err)
		return
	}
	last, err := s.output(samples[len(samples)-1].id)
	if err != nil {
		o.fail("served check: %v", err)
		return
	}
	if digest(first) != digest(last) {
		o.fail("served check: first and last job outputs differ")
		return
	}
	input, err := s.e.c.FS.ReadFile(s.e.input)
	if err != nil {
		o.fail("served check: reading input: %v", err)
		return
	}
	o.checkNaive(s.e.w.app, input, first)
	if checkInputBytes == 0 {
		return
	}
	job, err := s.spec.BuildJob(s.e.c.Nodes())
	if err != nil {
		o.fail("served check: %v", err)
		return
	}
	ref, err := mrtext.RunReference(s.e.c, job)
	if err != nil {
		o.fail("served check: reference executor: %v", err)
		return
	}
	var want []byte
	for p := 0; p < len(ref); p++ {
		want = append(want, ref[p]...)
	}
	if !bytes.Equal(first, want) {
		o.fail("served check: job output differs from the reference executor (%d vs %d bytes)", len(first), len(want))
		return
	}
}
