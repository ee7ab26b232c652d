package mr_test

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mrtext/internal/apps"
	"mrtext/internal/cluster"
	"mrtext/internal/metrics"
	"mrtext/internal/mr"
)

// The frequency buffer's two exits: its end-of-input aggregates leave a map
// task through the spill path, and the per-node set of frequent keys a job
// shares among its tasks leaves the cluster with the job.

// TestDrainTakesTheSpillPath: what the frequency buffer still holds at the
// end of a split is appended to the spill buffer like any other map output.
// With a buffer that holds a whole task the aggregates ride in the task's
// one spill, and that run is the task's output. With a small buffer and a
// combiner that cannot shrink its input (InvertedIndex), the drain forces
// spills of its own and a key's chunks straddle runs; the reduce-side merge
// puts them back together. Either way the output is RunReference's.
func TestDrainTakesTheSpillPath(t *testing.T) {
	freq := &mr.FreqBufConfig{K: 100, SampleFraction: 0.05, MemFraction: 0.3}
	t.Run("one run per task", func(t *testing.T) {
		c, corpus := newFTCluster(t, nil)
		job := apps.WordCount(corpus)
		job.Name = "drain-one-run"
		job.NumReducers = ftReducers
		job.SpillBufferBytes = 8 << 20
		job.FreqBuf = freq
		res := runAgainstReference(t, c, job)
		if hits := res.FreqStats().Hits; hits == 0 {
			t.Fatal("the frequency buffer absorbed nothing: there was nothing to drain")
		}
		// A split that holds no record (the corpus ends on a block boundary)
		// spills nothing, and publishes no run.
		for _, task := range res.Tasks {
			if task.Kind == "map" && task.Metrics.Counters[metrics.CtrMapOutputRecords] > 0 && task.Spill.Spills != 1 {
				t.Errorf("map task %d spilled %d times, want once", task.Index, task.Spill.Spills)
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

// cachedSets counts the frequent-key sets the cluster's node caches hold
// under the given job ids.
func cachedSets(c *cluster.Cluster, ids []string) int {
	n := 0
	for _, cache := range c.FreqCaches {
		for _, id := range ids {
			if _, ok := cache.Get(id); ok {
				n++
			}
		}
	}
	return n
}

// A job's sets are keyed by its run-unique prefix, "<name>.<run>": the run
// number counts every run in the process and also names the job's default
// output prefix, "<name>-out.<run>". runNumber reads it off a finished
// job's outputs.
func runNumber(t *testing.T, res *mr.Result) int {
	t.Helper()
	prefix, _, _ := strings.Cut(res.Outputs[0], "-r-")
	run, err := strconv.Atoi(strings.TrimPrefix(prefix, res.Job+"-out."))
	if err != nil {
		t.Fatalf("no run number in output %q: %v", res.Outputs[0], err)
	}
	return run
}

// nextIDs are the ids a job named name may run under when the last run
// the test saw was number last: the tests of this package run one at a
// time, so it is one of the next few.
func nextIDs(name string, last int) []string {
	ids := make([]string, 16)
	for i := range ids {
		ids[i] = fmt.Sprintf("%s.%d", name, last+1+i)
	}
	return ids
}

// TestFreqCacheForgetsFinishedJobs: a job's shared top-k sets are keyed by
// its run-unique prefix, so nothing can ask for them after the run; they
// must leave the node caches with it, whether it succeeded, failed or was
// canceled — on a long-lived cluster (a job service's) they would otherwise
// pile up, one set per node per job.
func TestFreqCacheForgetsFinishedJobs(t *testing.T) {
	c := newCancelCluster(t)
	freq := &mr.FreqBufConfig{K: 100, SampleFraction: 0.05, MemFraction: 0.3}

	var finished []string
	last := 0
	for i := 0; i < 3; i++ {
		job := apps.WordCount("corpus.txt")
		job.Name = "cache-ok"
		job.FreqBuf = freq
		// A spill buffer of one block plans a split per block: eight tasks on
		// six map slots, so two start only after a task has ended, on a node
		// whose cache that task's set is in. A task takes a set at its start
		// and publishes its own later, so a shared one is always another's.
		job.SpillBufferBytes = 32 << 10
		res, err := mr.Run(c, job)
		if err != nil {
			t.Fatal(err)
		}
		last = runNumber(t, res)
		finished = append(finished, fmt.Sprintf("%s.%d", job.Name, last))
		shared := 0
		for _, task := range res.Tasks {
			if task.Kind == "map" && task.FreqStats.SharedTopK {
				shared++
			}
		}
		if shared == 0 {
			t.Fatal("no task took its top-k from a node cache: the job published no set")
		}
		if n := cachedSets(c, finished); n != 0 {
			t.Fatalf("%d sets cached after %d finished jobs, want none", n, i+1)
		}
	}

	// published closes once some node's cache holds a set of the running
	// job; the mappers dawdle, so the job is mid-map then.
	watch := func(published chan struct{}, ids []string, fail error) func() mr.Mapper {
		var once sync.Once
		inner := apps.WordCount("corpus.txt").NewMapper
		return func() mr.Mapper {
			m := inner()
			return mr.MapperFunc(func(off int64, line []byte, out mr.Collector) error {
				if cachedSets(c, ids) > 0 {
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
		mr.SetAttemptLimit(job, 1)
		ids := nextIDs(job.Name, last)
		job.NewMapper = watch(make(chan struct{}), ids, boom)
		if _, err := mr.Run(c, job); err == nil || !strings.Contains(err.Error(), boom.Error()) {
			t.Fatalf("job error %v, want the mapper's", err)
		}
		if n := cachedSets(c, ids); n != 0 {
			t.Errorf("%d sets cached after a failed job, want none", n)
		}
	})

	t.Run("canceled", func(t *testing.T) {
		published := make(chan struct{})
		job := apps.WordCount("corpus.txt")
		job.Name = "cache-cancel"
		job.FreqBuf = freq
		ids := nextIDs(job.Name, last)
		job.NewMapper = watch(published, ids, nil)
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
		if n := cachedSets(c, ids); n != 0 {
			t.Errorf("%d sets cached after a canceled job, want none", n)
		}
	})
}
