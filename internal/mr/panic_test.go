//go:build !mrdebug

package mr_test

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mrtext/internal/apps"
	"mrtext/internal/cluster"
	"mrtext/internal/mr"
)

// A panic in user code fails the attempt it ran in, and the job's retry
// budget decides the rest; it never takes down the process, which on a
// service is every other tenant's jobs too. These tests crash the test
// binary on the parent commit. They are left out of mrdebug builds, where a
// recovered panic is raised again: there it may be one of the runtime's own
// assertions, which a retry must not hide.

// faulty is the job's own mapper with room for a fault before each line.
func faulty(job *mr.Job, before func()) func() mr.Mapper {
	inner := job.NewMapper
	return func() mr.Mapper {
		m := inner()
		return mr.MapperFunc(func(off int64, line []byte, out mr.Collector) error {
			before()
			return m.Map(off, line, out)
		})
	}
}

// TestPanicInMapperFailsTheAttempt: the first line any mapper of the job
// sees makes it panic. That attempt fails, its retry succeeds, and the
// output is what the reference executor computes.
func TestPanicInMapperFailsTheAttempt(t *testing.T) {
	c, corpus := newTextCluster(t, 2, 256<<10)
	clean := apps.WordCount(corpus)
	clean.Name = "panic-map-ref"
	want, err := mr.RunReference(c, clean)
	if err != nil {
		t.Fatal(err)
	}

	job := apps.WordCount(corpus)
	job.Name = "panic-map"
	job.SpillBufferBytes = 32 << 10
	var lines atomic.Int32
	job.NewMapper = faulty(job, func() {
		if lines.Add(1) == 1 {
			panic("mapper boom")
		}
	})
	res, err := mr.Run(c, job)
	if err != nil {
		t.Fatalf("one panicking attempt failed the job: %v", err)
	}
	if res.FailedAttempts < 1 {
		t.Errorf("%d failed attempts, want the panicking one counted", res.FailedAttempts)
	}
	assertOutputsMatch(t, c, res, want)
	assertRegionsHome(t, c)
}

// TestPanicInCombinerUnblocksProducer: the combiner panics on the support
// goroutine, and not before the map goroutine has emitted more than the
// buffer holds beside the spill being combined — that is, while it is
// parked in Append. The attempt fails, promptly, and both goroutines are
// gone.
func TestPanicInCombinerUnblocksProducer(t *testing.T) {
	cfg := cluster.Fast(1)
	cfg.MapSlotsPerNode = 1 // one map task at a time: the emit count below is its own
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.FS.Create("corpus.txt", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		if _, err := w.Write([]byte("alpha delta alpha gamma delta alpha\n")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Every record is a five-letter word and a one-byte count: 22 bytes of
	// the buffer. The Collect call that follows the last one that fits
	// cannot return before the spill being combined is released.
	const bufBytes = 16 << 10
	const fits = bufBytes / 22
	var emits atomic.Int64 // Collect calls begun
	job := apps.WordCount("corpus.txt")
	job.Name = "panic-combine"
	job.SpillBufferBytes = bufBytes
	mr.SetAttemptLimit(job, 1)
	job.NewMapper = func() mr.Mapper {
		return mr.MapperFunc(func(_ int64, line []byte, out mr.Collector) error {
			for _, w := range bytes.Fields(line) {
				emits.Add(1)
				if err := out.Collect(w, []byte("1")); err != nil {
					return err
				}
			}
			return nil
		})
	}
	job.Combine = func(key []byte, values [][]byte, emit func(k, v []byte) error) error {
		for emits.Load() <= fits {
			runtime.Gosched()
		}
		panic("combiner boom")
	}

	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := mr.Run(c, job)
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("job with a panicking combiner did not return: the producer is still parked")
	}
	if err == nil || !strings.Contains(err.Error(), "panicked: combiner boom") {
		t.Fatalf("error = %v, want the combiner's panic", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the job: one was left behind", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
	assertRegionsHome(t, c)
}

// TestPanicInReducerFailsTheJob: a reducer that always panics uses up the
// task's attempts, and the job's error says what was raised and where.
func TestPanicInReducerFailsTheJob(t *testing.T) {
	c, corpus := newTextCluster(t, 2, 64<<10)
	job := apps.WordCount(corpus)
	job.Name = "panic-reduce"
	mr.SetAttemptLimit(job, 2)
	job.NewReducer = func() mr.Reducer {
		return mr.ReducerFunc(func(key []byte, values mr.ValueIter, out mr.Collector) error {
			panic("reducer boom")
		})
	}
	_, err := mr.Run(c, job)
	if err == nil {
		t.Fatal("job with a panicking reducer succeeded")
	}
	for _, want := range []string{"reduce task", "panicked: reducer boom", "panic_test.go:"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error lacks %q:\n%v", want, err)
		}
	}
}

// TestPanicIsolatedFromConcurrentJob is the mrserve shape at the mr level:
// two jobs on one cluster at once, one of whose mappers always panics. It
// fails; the other's output is byte-identical to the reference executor's.
func TestPanicIsolatedFromConcurrentJob(t *testing.T) {
	c, corpus := newTextCluster(t, 2, 256<<10)
	good := func(name string) *mr.Job {
		job := apps.WordCount(corpus)
		job.Name = name
		job.OutputPrefix = name
		job.SpillBufferBytes = 32 << 10
		return job
	}
	want, err := mr.RunReference(c, good("isolated-ref"))
	if err != nil {
		t.Fatal(err)
	}
	poisoned := good("poisoned")
	mr.SetAttemptLimit(poisoned, 2)
	poisoned.NewMapper = faulty(poisoned, func() { panic("poisoned mapper") })

	type outcome struct {
		res *mr.Result
		err error
	}
	results := make(chan outcome, 2)
	healthy := good("healthy")
	for _, job := range []*mr.Job{poisoned, healthy} {
		go func(job *mr.Job) {
			res, err := mr.RunContext(context.Background(), c, job)
			results <- outcome{res, err}
		}(job)
	}
	failed, succeeded := 0, 0
	for i := 0; i < 2; i++ {
		out := <-results
		if out.err != nil {
			failed++
			if !strings.Contains(out.err.Error(), "panicked: poisoned mapper") {
				t.Errorf("failed job's error = %v, want the mapper's panic", out.err)
			}
			continue
		}
		succeeded++
		if out.res.Job != "healthy" {
			t.Errorf("job %q succeeded", out.res.Job)
		}
		assertOutputsMatch(t, c, out.res, want)
	}
	if failed != 1 || succeeded != 1 {
		t.Errorf("%d jobs failed and %d succeeded, want one of each", failed, succeeded)
	}
	assertRegionsHome(t, c)
}
