package mr_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"mrtext/internal/apps"
	"mrtext/internal/cluster"
	"mrtext/internal/metrics"
	"mrtext/internal/mr"
	"mrtext/internal/trace"
)

// The frequency buffer's two exits: its end-of-input aggregates leave a map
// task through the spill path, and the per-node set of frequent keys a job
// shares among its tasks leaves the cluster with the job.

// TestDrainTakesTheSpillPath: what the frequency buffer still holds at the
// end of a split is appended to the spill buffer like any other map output.
// With a buffer that holds a whole task the aggregates ride in the task's
// one spill and that run is renamed into place — no merge runs. With a
// small buffer and a combiner that cannot shrink its input (InvertedIndex),
// the drain forces spills of its own and a key's chunks straddle runs; the
// merge puts them back together. Either way the output is RunReference's.
func TestDrainTakesTheSpillPath(t *testing.T) {
	freq := &mr.FreqBufConfig{K: 100, SampleFraction: 0.05, MemFraction: 0.3, ShareTopK: true}
	t.Run("one run is renamed", func(t *testing.T) {
		c, corpus := newFTCluster(t, nil)
		job := apps.WordCount(corpus)
		job.Name = "drain-one-run"
		job.NumReducers = ftReducers
		job.SpillBufferBytes = 8 << 20
		job.FreqBuf = freq
		job.Trace = trace.New(1 << 16)
		res := runAgainstReference(t, c, job)
		if hits := res.FreqStats().Hits; hits == 0 {
			t.Fatal("the frequency buffer absorbed nothing: there was nothing to drain")
		}
		// A split that holds no record (the corpus ends on a block boundary)
		// spills nothing, and merges its zero runs into an empty output.
		empty := make(map[int]bool)
		for _, task := range res.Tasks {
			if task.Kind != "map" {
				continue
			}
			if task.Metrics.Counters[metrics.CtrMapOutputRecords] == 0 {
				empty[task.Index] = true
			} else if task.Spill.Spills != 1 {
				t.Errorf("map task %d spilled %d times, want once", task.Index, task.Spill.Spills)
			}
		}
		if d := job.Trace.Dropped(); d != 0 {
			t.Fatalf("tracer dropped %d events", d)
		}
		for _, ev := range job.Trace.Events() {
			if ev.Kind == trace.KindMerge && !empty[int(ev.Task)] {
				t.Errorf("map task %d merged: its one run was not renamed into place", ev.Task)
			}
		}
	})
	t.Run("chunks straddle runs", func(t *testing.T) {
		c, corpus := newFTCluster(t, nil)
		job := apps.InvertedIndex(corpus)
		job.Name = "drain-straddle"
		job.NumReducers = ftReducers
		job.SpillBufferBytes = 32 << 10
		job.FreqBuf = freq
		res := runAgainstReference(t, c, job)
		if hits := res.FreqStats().Hits; hits == 0 {
			t.Fatal("the frequency buffer absorbed nothing: there was nothing to drain")
		}
		if spills := res.SpillStats().Spills; spills < 2*res.MapTasks {
			t.Errorf("%d spills over %d map tasks: the buffer was meant to be too small for a task", spills, res.MapTasks)
		}
	})
}

// cachedSets counts the frequent-key sets held by the cluster's node caches.
func cachedSets(c *cluster.Cluster) int {
	n := 0
	for _, cache := range c.FreqCaches {
		n += cache.Len()
	}
	return n
}

// TestFreqCacheForgetsFinishedJobs: a job's shared top-k sets are keyed by
// its run-unique prefix, so nothing can ask for them after the run; they
// must leave the node caches with it, whether it succeeded, failed or was
// canceled — on a long-lived cluster (a job service's) they would otherwise
// pile up, one set per node per job.
func TestFreqCacheForgetsFinishedJobs(t *testing.T) {
	c := newCancelCluster(t)
	freq := &mr.FreqBufConfig{K: 100, SampleFraction: 0.05, MemFraction: 0.3, ShareTopK: true}

	for i := 0; i < 3; i++ {
		job := apps.WordCount("corpus.txt")
		job.Name = "cache-ok"
		job.FreqBuf = freq
		res, err := mr.Run(c, job)
		if err != nil {
			t.Fatal(err)
		}
		shared := 0
		for _, task := range res.Tasks {
			if task.Kind == "map" && task.FreqStats.SharedTopK {
				shared++
			}
		}
		if shared == 0 {
			t.Fatal("no task took its top-k from a node cache: the job published no set")
		}
		if n := cachedSets(c); n != 0 {
			t.Fatalf("%d sets cached after %d finished jobs, want none", n, i+1)
		}
	}

	// published closes once some node's cache holds a set of the running
	// job; the mappers dawdle, so the job is mid-map then.
	watch := func(published chan struct{}, fail error) func() mr.Mapper {
		var once sync.Once
		inner := apps.WordCount("corpus.txt").NewMapper
		return func() mr.Mapper {
			m := inner()
			return mr.MapperFunc(func(off int64, line []byte, out mr.Collector) error {
				if cachedSets(c) > 0 {
					once.Do(func() { close(published) })
					if fail != nil {
						return fail
					}
				}
				time.Sleep(100 * time.Microsecond)
				return m.Map(off, line, out)
			})
		}
	}

	t.Run("failed", func(t *testing.T) {
		boom := errors.New("mapper gives up")
		job := apps.WordCount("corpus.txt")
		job.Name = "cache-fail"
		job.FreqBuf = freq
		job.MaxAttempts = 1
		job.NewMapper = watch(make(chan struct{}), boom)
		if _, err := mr.Run(c, job); err == nil || !strings.Contains(err.Error(), boom.Error()) {
			t.Fatalf("job error %v, want the mapper's", err)
		}
		if n := cachedSets(c); n != 0 {
			t.Errorf("%d sets cached after a failed job, want none", n)
		}
	})

	t.Run("canceled", func(t *testing.T) {
		published := make(chan struct{})
		job := apps.WordCount("corpus.txt")
		job.Name = "cache-cancel"
		job.FreqBuf = freq
		job.NewMapper = watch(published, nil)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := make(chan error, 1)
		go func() {
			_, err := mr.RunContext(ctx, c, job)
			done <- err
		}()
		select {
		case <-published:
		case <-time.After(30 * time.Second):
			t.Fatal("no task published a top-k set")
		}
		cancel()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "canceled") {
				t.Fatalf("job error %v, want a cancellation", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("RunContext did not return after cancellation")
		}
		if n := cachedSets(c); n != 0 {
			t.Errorf("%d sets cached after a canceled job, want none", n)
		}
	})
}
