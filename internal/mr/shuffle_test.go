package mr_test

import (
	"io"
	"regexp"
	"strings"
	"sync"
	"testing"

	"mrtext/internal/chaos"
	"mrtext/internal/cluster"
	"mrtext/internal/metrics"
	"mrtext/internal/mr"
	"mrtext/internal/textgen"
	"mrtext/internal/vdisk"
)

// Pipelined-shuffle integration suite: job output must be byte-identical
// to the reference executor's — staged in memory or, over budget, fetched
// directly, in either on-disk segment format, on degenerate inputs and
// under injected faults — and the pipeline must demonstrably overlap the map
// phase (that overlap is its whole reason to exist).

// runAgainstReference runs job on c and requires output byte-identical to
// RunReference's on the same cluster (fault-free even on a chaos cluster:
// the injector is armed only while a job runs).
func runAgainstReference(t *testing.T, c *cluster.Cluster, job *mr.Job) *mr.Result {
	t.Helper()
	ref, err := mr.RunReference(c, job)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	res, err := mr.Run(c, job)
	if err != nil {
		if c.Chaos != nil {
			t.Fatalf("run: %v\nchaos log: %v", err, c.Chaos.Log())
		}
		t.Fatalf("run: %v", err)
	}
	assertOutputsMatch(t, c, res, ref)
	return res
}

// diskWatch wraps a node disk and records what the job asks of it: the name
// of every file created, and the positioned reads of committed map outputs
// — which only a copier admitted to staging or a reduce attempt's direct
// fetch makes.
type diskWatch struct {
	vdisk.Disk
	log *diskLog
}

type diskLog struct {
	mu         sync.Mutex
	created    []string
	outSection int
}

func (d diskWatch) Create(name string) (io.WriteCloser, error) {
	d.log.mu.Lock()
	d.log.created = append(d.log.created, name)
	d.log.mu.Unlock()
	return d.Disk.Create(name)
}

func (d diskWatch) OpenSection(name string, off, length int64) (io.ReadCloser, error) {
	if committedMapOut.MatchString(name) {
		d.log.mu.Lock()
		d.log.outSection++
		d.log.mu.Unlock()
	}
	return d.Disk.OpenSection(name, off, length)
}

var (
	// attemptFile is a map attempt's spill run or uncommitted output, or a
	// block of a reduce attempt's uncommitted DFS output: what a job may
	// create. A name without its attempt number is how two attempts of one
	// task would collide.
	attemptFile     = regexp.MustCompile(`/m\d{5}/a\d{2}/(spill\d{4}|out)$|^dfs/.+-r-\d{5}\.a\d{2}\.tmp/blk\d{6}/r\d+$`)
	committedMapOut = regexp.MustCompile(`/m\d{5}/out$`)
)

// watchDisks puts a diskWatch on every node disk of c (the DFS shares the
// slice, so its block files pass through too).
func watchDisks(c *cluster.Cluster) *diskLog {
	log := &diskLog{}
	for i, d := range c.Disks {
		c.Disks[i] = diskWatch{Disk: d, log: log}
	}
	return log
}

// assertStagingIsMemoryOnly checks what holds for every staging budget: the
// job created nothing but attempt-scoped files (no second copy of a segment
// on any disk, no file outside an attempt's namespace), staging never held
// more than the budget, and each reduce attempt resolved each map output
// exactly once, from staging or by direct fetch. It returns the number of
// direct fetches.
func assertStagingIsMemoryOnly(t *testing.T, res *mr.Result, hists *mr.Hists, log *diskLog, budget int64) int64 {
	t.Helper()
	for _, name := range log.created {
		if !attemptFile.MatchString(name) {
			t.Errorf("job created %q, which is no attempt's spill or output file", name)
		}
	}
	if res.ShuffleStagingPeak > budget {
		t.Errorf("staging peak %d over the budget %d", res.ShuffleStagingPeak, budget)
	}
	if res.ReduceAttempts != res.ReduceTasks {
		t.Fatalf("%d reduce attempts for %d tasks on a fault-free cluster", res.ReduceAttempts, res.ReduceTasks)
	}
	fetches := int64(hists.ShuffleFetch.Snapshot().Count)
	if want := int64(res.MapTasks * res.ReduceTasks); fetches != want {
		t.Errorf("%d sources fetched, want %d map tasks x %d partitions = %d", fetches, res.MapTasks, res.ReduceTasks, want)
	}
	hits := res.Agg.Counters[metrics.CtrShuffleStagedHits]
	if staged := res.Agg.Counters[metrics.CtrShuffleStagedSegments]; hits > staged {
		t.Errorf("%d staged hits from %d staged segments", hits, staged)
	}
	return fetches - hits
}

// TestPipelinedShuffleMatchesReference runs the job with the default
// staging budget, with one a fraction of the shuffle volume, and with a
// 1-byte budget that admits only empty segments, and requires outputs
// byte-identical to RunReference's on the same cluster. Over budget means
// direct fetch: whatever staging did not admit stays on the source disk and
// no file is written for it.
func TestPipelinedShuffleMatchesReference(t *testing.T) {
	cases := []struct {
		name   string
		buffer int64
	}{
		{"default-buffer", 32 << 20},
		{"over-budget", 16 << 10},
		{"one-byte-buffer", 1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c, corpus := newFTCluster(t, nil)
			log := watchDisks(c)
			job := ftJob(corpus, "wc-shuffle-"+tc.name)
			job.ShuffleBufferBytes = tc.buffer
			job.Hists = mr.NewHists()
			res := runAgainstReference(t, c, job)
			direct := assertStagingIsMemoryOnly(t, res, job.Hists, log, tc.buffer)
			ctr := res.Agg.Counters
			switch tc.buffer {
			case 16 << 10:
				if shuffled := ctr[metrics.CtrShuffleBytes]; shuffled < 4*tc.buffer {
					t.Fatalf("shuffle volume %d is not several times the budget %d", shuffled, tc.buffer)
				}
				if direct == 0 || ctr[metrics.CtrShuffleStagedHits] == 0 {
					t.Errorf("%d direct fetches and %d staged hits; want both roads travelled", direct, ctr[metrics.CtrShuffleStagedHits])
				}
			case 1:
				assertOnlyEmptySegmentsStaged(t, res, log, direct)
			}
		})
	}
}

// assertOnlyEmptySegmentsStaged checks a run under a 1-byte budget: no byte
// was staged, and no copier read a source disk — every positioned read of a
// map output belongs to a direct fetch (one of an empty segment reads
// nothing).
func assertOnlyEmptySegmentsStaged(t *testing.T, res *mr.Result, log *diskLog, direct int64) {
	t.Helper()
	if n := res.Agg.Counters[metrics.CtrShuffleStagedBytes]; n != 0 {
		t.Errorf("%d bytes staged under a 1-byte budget", n)
	}
	if int64(log.outSection) > direct || log.outSection == 0 {
		t.Errorf("%d positioned reads of map outputs for %d direct fetches", log.outSection, direct)
	}
}

// TestShuffleFetchPlaneVariantsMatchReference drives both on-disk segment
// formats through the fetch plane and requires byte-identical outputs
// against RunReference for each: raw segments from a corpus so small
// against so many reducers that every segment is a handful of records, and
// the prefix-compressed segments CompressRuns writes, taken from staging
// and — under a 1-byte budget — direct-fetched from the source disk.
func TestShuffleFetchPlaneVariantsMatchReference(t *testing.T) {
	cases := []struct {
		name          string
		block, corpus int64
		budget        int64
		tune          func(job *mr.Job)
	}{
		{"raw-segments", 512, 4 << 10, 32 << 20, func(job *mr.Job) { job.NumReducers = 64 }},
		{"compress-runs", ftBlock, ftCorpus, 32 << 20, func(job *mr.Job) { job.CompressRuns = true }},
		{"compress-runs-one-byte-buffer", ftBlock, ftCorpus, 1, func(job *mr.Job) { job.CompressRuns = true }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c, corpus := newFTClusterSized(t, nil, tc.block, tc.corpus)
			log := watchDisks(c)
			job := ftJob(corpus, "wc-variant-"+tc.name)
			tc.tune(job)
			job.ShuffleBufferBytes = tc.budget
			job.Hists = mr.NewHists()
			res := runAgainstReference(t, c, job)
			direct := assertStagingIsMemoryOnly(t, res, job.Hists, log, tc.budget)
			if tc.budget == 1 {
				assertOnlyEmptySegmentsStaged(t, res, log, direct)
			} else if res.Agg.Counters[metrics.CtrShuffleStagedHits] == 0 {
				t.Error("no segment was taken from staging: the staged road did not run")
			}
		})
	}
}

// TestShuffleEdgeInputsMatchReference runs degenerate inputs through the
// whole job — map, spill, copier staging, staged fetch, reduce — and
// requires RunReference's bytes for each.
func TestShuffleEdgeInputsMatchReference(t *testing.T) {
	longKey := strings.Repeat("k", 3<<10)
	cases := []struct {
		name  string
		input string
		tune  func(job *mr.Job)
	}{
		{"empty-input", "", func(*mr.Job) {}},
		// One record, 64 partitions: 63 of every map output's segments
		// are empty.
		{"one-word-64-reducers", "word\n", func(job *mr.Job) { job.NumReducers = 64 }},
		// Every record lands in one partition; the other three receive
		// nothing from any map task.
		{"all-one-key", strings.Repeat("same same same same\n", 2000), func(*mr.Job) {}},
		// A key the split reader cannot hold in one arena chunk.
		{"key-longer-than-ingest-chunk", "a " + longKey + " b\n" + longKey + "\n", func(job *mr.Job) { job.IngestChunkBytes = 1 << 10 }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := cluster.Fast(ftNodes)
			cfg.BlockSize = 8 << 10
			c, err := cluster.New(cfg)
			if err != nil {
				t.Fatalf("cluster: %v", err)
			}
			w, err := c.FS.Create("edge.txt", 0)
			if err != nil {
				t.Fatalf("create input: %v", err)
			}
			if _, err := io.WriteString(w, tc.input); err != nil {
				t.Fatalf("write input: %v", err)
			}
			if err := w.Close(); err != nil {
				t.Fatalf("close input: %v", err)
			}
			job := ftJob("edge.txt", "wc-edge-"+tc.name)
			tc.tune(job)
			runAgainstReference(t, c, job)
		})
	}
}

// TestEarlyFetchOverlapsMapPhase gives the job two full waves of map
// tasks (16 splits over 8 map slots), so first-wave outputs commit while
// second-wave tasks are still computing and the copier pools must stage
// segments before the map phase ends.
func TestEarlyFetchOverlapsMapPhase(t *testing.T) {
	cfg := cluster.Fast(ftNodes)
	cfg.BlockSize = 64 << 10 // 16 splits of the 1 MiB corpus
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	w, err := c.FS.Create("corpus.txt", 0)
	if err != nil {
		t.Fatalf("create corpus: %v", err)
	}
	gen := textgen.CorpusConfig{Vocabulary: 5000, Alpha: 1.0, WordsPerLine: 8, Seed: 42}
	if _, err := textgen.Corpus(w, gen, ftCorpus); err != nil {
		t.Fatalf("generate corpus: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close corpus: %v", err)
	}

	res, err := mr.Run(c, ftJob("corpus.txt", "wc-overlap"))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.ShuffleEarlySegments == 0 {
		t.Error("two map waves ran but no segment was staged before the map phase finished")
	}
	if res.ShuffleStagingPeak == 0 {
		t.Error("staging buffer high-water mark is zero despite staged segments")
	}
}

// TestPipelinedShuffleUnderChaosMatchesReference reruns a slice of the
// determinism matrix against RunReference, pinning that the staged path
// keeps byte identity when attempts fail, retry and recover.
func TestPipelinedShuffleUnderChaosMatchesReference(t *testing.T) {
	cfg := chaos.Config{Seed: 17, FailRate: 0.20, KillNode: -1}
	c, corpus := newFTCluster(t, &cfg)
	res := runAgainstReference(t, c, ftJob(corpus, "wc-chaos-pipelined"))
	assertCounterIdentity(t, res)
}

// TestOverBudgetShuffleUnderChaosMatchesReference is the same cell with a
// staging budget a fraction of the shuffle volume — the one place a staging
// miss and an injected fetch fault meet: most sources are direct-fetched,
// by attempts that fail, retry and absorb fetch faults, and the output is
// still RunReference's.
func TestOverBudgetShuffleUnderChaosMatchesReference(t *testing.T) {
	cfg := chaos.Config{Seed: 17, FailRate: 0.20, KillNode: -1}
	c, corpus := newFTCluster(t, &cfg)
	job := ftJob(corpus, "wc-chaos-over-budget")
	job.ShuffleBufferBytes = 16 << 10
	job.Hists = mr.NewHists()
	res := runAgainstReference(t, c, job)
	assertCounterIdentity(t, res)
	if res.ShuffleStagingPeak > job.ShuffleBufferBytes {
		t.Errorf("staging peak %d over the budget %d", res.ShuffleStagingPeak, job.ShuffleBufferBytes)
	}
	fetches := int64(job.Hists.ShuffleFetch.Snapshot().Count)
	if hits := res.Agg.Counters[metrics.CtrShuffleStagedHits]; fetches <= hits {
		t.Errorf("%d sources fetched, %d of them from staging: no direct fetch under a %d-byte budget", fetches, hits, job.ShuffleBufferBytes)
	}
}
