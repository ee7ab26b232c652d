package mr_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"mrtext/internal/apps"
	"mrtext/internal/cluster"
	"mrtext/internal/core/spillmatch"
	"mrtext/internal/metrics"
	"mrtext/internal/mr"
	"mrtext/internal/spillbuf"
	"mrtext/internal/textgen"
	"mrtext/internal/trace"
)

// TestMultipleInputFiles: a job over several DFS files processes every
// block of each, matching the reference.
func TestMultipleInputFiles(t *testing.T) {
	c, err := cluster.New(cluster.Fast(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"part1.txt", "part2.txt", "part3.txt"} {
		w, err := c.FS.Create(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg := textgen.CorpusConfig{Vocabulary: 300, Alpha: 1, WordsPerLine: 6, Seed: int64(i + 1)}
		if _, err := textgen.Corpus(w, cfg, 64<<10); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	inputs := []string{"part1.txt", "part2.txt", "part3.txt"}
	ref, err := mr.RunReference(c, apps.WordCount(inputs...))
	if err != nil {
		t.Fatal(err)
	}
	job := apps.WordCount(inputs...)
	job.Name = "multi-input"
	res, err := mr.Run(c, job)
	if err != nil {
		t.Fatal(err)
	}
	got := readOutputs(t, c, res)
	for p := range ref {
		if !bytes.Equal(got[p], ref[p]) {
			t.Errorf("partition %d differs", p)
		}
	}
	if res.MapTasks < 3 {
		t.Errorf("only %d map tasks for 3 files", res.MapTasks)
	}
}

// TestMoreReducersThanKeys: empty reduce partitions produce empty output
// files, not errors.
func TestMoreReducersThanKeys(t *testing.T) {
	c, err := cluster.New(cluster.Fast(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FS.WriteFile("tiny.txt", []byte("solo\n")); err != nil {
		t.Fatal(err)
	}
	job := apps.WordCount("tiny.txt")
	job.Name = "sparse"
	job.NumReducers = 8
	res, err := mr.Run(c, job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 8 {
		t.Fatalf("outputs %d", len(res.Outputs))
	}
	var nonEmpty int
	for _, name := range res.Outputs {
		data, err := c.FS.ReadFile(name)
		if err != nil {
			t.Fatalf("reading %s: %v", name, err)
		}
		if len(data) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 1 {
		t.Errorf("%d non-empty partitions for a single key", nonEmpty)
	}
}

// TestShuffleByteAccounting: shuffle volume is counted, and on a
// single-node cluster no bytes cross the fabric.
func TestShuffleByteAccounting(t *testing.T) {
	single, err := cluster.New(cluster.Fast(1))
	if err != nil {
		t.Fatal(err)
	}
	w, err := single.FS.Create("c.txt", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := textgen.Corpus(w, textgen.CorpusConfig{Vocabulary: 200, Alpha: 1, WordsPerLine: 8, Seed: 3}, 128<<10); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	job := apps.WordCount("c.txt")
	job.Name = "local-shuffle"
	res, err := mr.Run(single, job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.Counters[metrics.CtrShuffleBytes] == 0 {
		t.Error("shuffle bytes not counted")
	}
	if moved := single.Net.Stats().BytesMoved; moved != 0 {
		t.Errorf("single-node job moved %d bytes across the fabric", moved)
	}

	// Multi-node: some shuffle traffic must be remote.
	multi, err := cluster.New(cluster.Fast(4))
	if err != nil {
		t.Fatal(err)
	}
	w2, err := multi.FS.Create("c.txt", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := textgen.Corpus(w2, textgen.CorpusConfig{Vocabulary: 200, Alpha: 1, WordsPerLine: 8, Seed: 3}, 4<<20); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	job2 := apps.WordCount("c.txt")
	job2.Name = "remote-shuffle"
	if _, err := mr.Run(multi, job2); err != nil {
		t.Fatal(err)
	}
	if multi.Net.Stats().BytesMoved == 0 {
		t.Error("multi-node job moved nothing across the fabric")
	}
}

// TestResultAggregationHelpers exercises FreqStats/SpillStats and the task
// report structure of a real run.
func TestResultAggregationHelpers(t *testing.T) {
	c, corpus := newTextCluster(t, 2, 256<<10)
	job := apps.WordCount(corpus)
	job.Name = "agg-helpers"
	job.SpillBufferBytes = 32 << 10
	job.FreqBuf = &mr.FreqBufConfig{K: 50, SampleFraction: 0.05, MemFraction: 0.3}
	job.SpillMatcher = true
	res, err := mr.Run(c, job)
	if err != nil {
		t.Fatal(err)
	}
	fs := res.FreqStats()
	if fs.Hits == 0 || fs.Profiled == 0 {
		t.Errorf("freq stats %+v", fs)
	}
	ss := res.SpillStats()
	if ss.Spills == 0 || ss.SpillBytes == 0 || ss.MaxPending == 0 {
		t.Errorf("spill stats %+v", ss)
	}
	var maps, reduces int
	for _, tr := range res.Tasks {
		switch tr.Kind {
		case "map":
			maps++
			if tr.Wall <= 0 {
				t.Error("map task with zero wall time")
			}
		case "reduce":
			reduces++
		default:
			t.Errorf("unknown task kind %q", tr.Kind)
		}
	}
	if maps != res.MapTasks || reduces != res.ReduceTasks {
		t.Errorf("task reports %d/%d, result says %d/%d", maps, reduces, res.MapTasks, res.ReduceTasks)
	}
	// Hits were recorded in the counter too, and agree with FreqStats.
	if res.Agg.Counters[metrics.CtrFreqHits] != fs.Hits {
		t.Errorf("counter hits %d vs stats hits %d", res.Agg.Counters[metrics.CtrFreqHits], fs.Hits)
	}
}

// TestTopKSharingAcrossTasks: with several waves of splits on a node, later
// tasks reuse the first task's frozen top-k (SharedTopK set, no
// re-profiling). A 1 MiB spill buffer holds one 1 MiB block, so the four
// blocks are four tasks in two waves of the node's two slots.
func TestTopKSharingAcrossTasks(t *testing.T) {
	c, corpus := newTextCluster(t, 1, 4<<20) // 1 node, several 1 MiB blocks
	job := apps.WordCount(corpus)
	job.Name = "sharing"
	job.SpillBufferBytes = 1 << 20
	job.FreqBuf = &mr.FreqBufConfig{K: 100, SampleFraction: 0.05, MemFraction: 0.3}
	res, err := mr.Run(c, job)
	if err != nil {
		t.Fatal(err)
	}
	if res.MapTasks < 2 {
		t.Skip("needs multiple map tasks")
	}
	var shared int
	for _, tr := range res.Tasks {
		if tr.Kind == "map" && tr.FreqStats.SharedTopK {
			shared++
		}
	}
	if shared == 0 {
		t.Error("no task reused the node's frozen top-k")
	}
}

// TestSpillMatcherAdaptsInRealRuns: under the matcher, recorded spill
// percentages move away from the static default. What is compared is what
// the buffers decided — the percentage each Release left in force, as the
// job's tracer recorded it — not how two runs' wall clocks happened to
// split between working and waiting.
func TestSpillMatcherAdaptsInRealRuns(t *testing.T) {
	c, corpus := newTextCluster(t, 2, 512<<10)
	decisions := func(matcher bool) map[int64]int {
		tr := trace.New(1 << 16)
		job := apps.WordCount(corpus)
		job.SpillBufferBytes = 64 << 10
		job.SpillMatcher = matcher
		job.Trace = tr
		if _, err := mr.Run(c, job); err != nil {
			t.Fatal(err)
		}
		if d := tr.Dropped(); d != 0 {
			t.Fatalf("tracer dropped %d events", d)
		}
		seen := map[int64]int{} // basis points → spills released under them
		for _, ev := range tr.Events() {
			if ev.Kind == trace.KindSpillDecision {
				seen[ev.Arg]++
			}
		}
		return seen
	}
	const staticBP = int64(spillmatch.DefaultStaticPercent * 10000)
	static := decisions(false)
	if len(static) != 1 || static[staticBP] < 4 {
		t.Fatalf("static controller's decisions %v, want several spills, all at %d basis points", static, staticBP)
	}
	// The matcher sets max{c/(p+c), ½}·M from each spill's measurements:
	// wherever the two threads' rates put that, it is not a constant 0.8.
	adapted := decisions(true)
	delete(adapted, staticBP)
	if len(adapted) == 0 {
		t.Errorf("every spill under the matcher was released at the static %d basis points", staticBP)
	}
}

// assertKeptAfterCut checks the cluster after a map phase's cut with no
// task running: no map workspace is out; the cluster keeps at least one
// and at most one per map task that ran, and at most one per slot; each
// holds its spill regions, one or two, for a task of the next phase to
// fill, and no region is in two of them.
func assertKeptAfterCut(t *testing.T, c *cluster.Cluster, tasks int, after string) {
	t.Helper()
	if out := c.MapWorkspaces.Out(); out != 0 {
		t.Errorf("after %s: %d map workspaces out", after, out)
	}
	kept, distinct := mr.KeptRegions(c)
	if bound := min(tasks, c.TotalMapSlots()); len(kept) == 0 || len(kept) > bound {
		t.Errorf("after %s: %d map workspaces kept, want 1 to %d", after, len(kept), bound)
	}
	total := 0
	for i, n := range kept {
		if n == 0 || n > spillbuf.RegionsPerBuffer {
			t.Errorf("after %s: kept workspace %d holds %d spill regions, want 1 to %d", after, i, n, spillbuf.RegionsPerBuffer)
		}
		total += n
	}
	if distinct != total {
		t.Errorf("after %s: the workspaces hold %d regions but %d distinct arenas", after, total, distinct)
	}
}

// TestRegionsKeptBetweenConcurrentJobs: two jobs run at once, twice over.
// Both runners cut the map workspaces when their map phases end, one
// right after the other when the phases end together; the later cut must
// not empty what the earlier one kept, so after each round the spill
// regions of a workspace per map task, at most one per slot, are there
// for the next jobs.
func TestRegionsKeptBetweenConcurrentJobs(t *testing.T) {
	c, corpus := newTextCluster(t, 2, 3<<20) // three splits, four map slots
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		results := make([]*mr.Result, 2)
		errs := make([]error, 2)
		for i := range results {
			job := apps.WordCount(corpus)
			job.Name = fmt.Sprintf("round%d-job%d", round, i)
			job.SpillBufferBytes = 256 << 10
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i], errs[i] = mr.Run(c, job)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		tasks := results[0].MapTasks + results[1].MapTasks
		assertKeptAfterCut(t, c, tasks, fmt.Sprintf("round %d", round))
	}
}

// TestRegionsKeptBetweenJobs: when a job's map phase ends the cluster
// keeps the spill regions of at most one map workspace per task it ran,
// at most one per slot, for the next job's tasks to start on; nothing is
// out, and nothing else of the workspaces is held through the reduce
// phase (TestMapWorkspaceReuse checks that on one slot).
func TestRegionsKeptBetweenJobs(t *testing.T) {
	c, corpus := newTextCluster(t, 2, 3<<20) // three splits, four map slots
	for _, name := range []string{"first", "second"} {
		job := apps.WordCount(corpus)
		job.Name = name
		job.SpillBufferBytes = 256 << 10
		res, err := mr.Run(c, job)
		if err != nil {
			t.Fatal(err)
		}
		assertKeptAfterCut(t, c, res.MapTasks, "job "+name)
	}
}
