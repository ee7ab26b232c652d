package mr_test

import (
	"io"
	"strings"
	"testing"

	"mrtext/internal/chaos"
	"mrtext/internal/cluster"
	"mrtext/internal/metrics"
	"mrtext/internal/mr"
	"mrtext/internal/textgen"
)

// Pipelined-shuffle integration suite: job output must be byte-identical
// to the reference executor's — with staging in memory, overflowed to
// disk, in either on-disk segment format, on degenerate inputs and under
// injected faults — and the pipeline must demonstrably overlap the map
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

// TestPipelinedShuffleMatchesReference runs the job with the default
// staging budget and with a 1-byte budget that forces every staged segment
// to disk, and requires outputs byte-identical to RunReference's on the
// same cluster.
func TestPipelinedShuffleMatchesReference(t *testing.T) {
	cases := []struct {
		name       string
		buffer     int64
		wantSpills bool
	}{
		{"default-buffer", 0, false},
		{"one-byte-buffer", 1, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c, corpus := newFTCluster(t, nil)
			job := ftJob(corpus, "wc-shuffle-"+tc.name)
			job.ShuffleBufferBytes = tc.buffer
			res := runAgainstReference(t, c, job)
			if tc.wantSpills && res.ShuffleStagedSpills == 0 {
				t.Error("1-byte staging budget produced no staged spills")
			}
			if !tc.wantSpills && res.ShuffleStagedSpills != 0 {
				t.Errorf("default staging budget overflowed %d segments", res.ShuffleStagedSpills)
			}
		})
	}
}

// TestShuffleFetchPlaneVariantsMatchReference drives both on-disk segment
// formats through staging and requires byte-identical outputs against
// RunReference for each: raw segments from a corpus so small against so
// many reducers that every segment is a handful of records, and the
// prefix-compressed segments CompressRuns writes, staged in memory and —
// through a 1-byte budget — read back from the staging disk.
func TestShuffleFetchPlaneVariantsMatchReference(t *testing.T) {
	cases := []struct {
		name          string
		block, corpus int64
		tune          func(job *mr.Job)
		wantSpills    bool
	}{
		{"raw-segments", 512, 4 << 10, func(job *mr.Job) { job.NumReducers = 64 }, false},
		{"compress-runs", ftBlock, ftCorpus, func(job *mr.Job) { job.CompressRuns = true }, false},
		{"compress-runs-one-byte-buffer", ftBlock, ftCorpus, func(job *mr.Job) {
			job.CompressRuns = true
			job.ShuffleBufferBytes = 1
		}, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c, corpus := newFTClusterSized(t, nil, tc.block, tc.corpus)
			job := ftJob(corpus, "wc-variant-"+tc.name)
			tc.tune(job)
			res := runAgainstReference(t, c, job)
			if res.Agg.Counters[metrics.CtrShuffleStagedSegments] == 0 {
				t.Error("no segment was staged: the fetch plane did not run")
			}
			if spilled := res.ShuffleStagedSpills > 0; spilled != tc.wantSpills {
				t.Errorf("%d staged spills, want spills = %v", res.ShuffleStagedSpills, tc.wantSpills)
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
