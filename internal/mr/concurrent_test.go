package mr_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"mrtext/internal/apps"
	"mrtext/internal/chaos"
	"mrtext/internal/cluster"
	"mrtext/internal/metrics"
	"mrtext/internal/mr"
	"mrtext/internal/textgen"
	"mrtext/internal/trace"
)

// Concurrent-isolation suite: one cluster, many simultaneous mr.Run calls.
// The service contract is that concurrent jobs produce byte-identical
// outputs and isolated per-job Result counters versus serial runs, even
// when one of the jobs runs under a private chaos injector.

const (
	concNodes    = 4
	concReducers = 4
	concCorpus   = 512 << 10
)

func newConcCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	cfg := cluster.Fast(concNodes)
	cfg.BlockSize = 64 << 10
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	w, err := c.FS.Create("corpus.txt", 0)
	if err != nil {
		t.Fatalf("create corpus: %v", err)
	}
	gen := textgen.CorpusConfig{Vocabulary: 4000, Alpha: 1.0, WordsPerLine: 8, Seed: 17}
	if _, err := textgen.Corpus(w, gen, concCorpus); err != nil {
		t.Fatalf("generate corpus: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close corpus: %v", err)
	}
	return c
}

func concWordCount(name string) *mr.Job {
	job := apps.WordCount("corpus.txt")
	job.Name = name
	job.NumReducers = concReducers
	job.SpillBufferBytes = 32 << 10
	return job
}

func concSynText(name string) *mr.Job {
	job := apps.SynText(apps.SynTextConfig{CPUFactor: 2, Storage: 0.5}, "corpus.txt")
	job.Name = name
	job.NumReducers = concReducers
	job.SpillBufferBytes = 32 << 10
	return job
}

// deterministicCtrs are the counters that depend only on the input and
// the job configuration, never on scheduling: the set a concurrent run
// must reproduce exactly to prove its accounting did not interleave with
// a neighbor's. The reduce side's values are not among them: it reads
// each spill run of a map task, whose cuts the support goroutine's pace
// sets.
var deterministicCtrs = []string{
	metrics.CtrMapInputRecords,
	metrics.CtrMapOutputRecords,
	metrics.CtrMapOutputBytes,
	metrics.CtrReduceInputGroups,
	metrics.CtrOutputRecords,
	metrics.CtrOutputBytes,
}

// TestConcurrentJobsIsolated runs a mixed batch — two WordCounts, two
// SynTexts, one of each tenant flavor, one under a private chaos
// injector — concurrently on one cluster and checks every job against its
// serial ground truth.
func TestConcurrentJobsIsolated(t *testing.T) {
	c := newConcCluster(t)

	wcRef, err := mr.RunReference(c, concWordCount("wc-ref"))
	if err != nil {
		t.Fatalf("wordcount reference: %v", err)
	}
	synRef, err := mr.RunReference(c, concSynText("syn-ref"))
	if err != nil {
		t.Fatalf("syntext reference: %v", err)
	}

	// Serial baselines for the deterministic counters.
	wcSerial, err := mr.Run(c, concWordCount("wc-serial"))
	if err != nil {
		t.Fatalf("serial wordcount: %v", err)
	}
	synSerial, err := mr.Run(c, concSynText("syn-serial"))
	if err != nil {
		t.Fatalf("serial syntext: %v", err)
	}

	inj, err := chaos.New(chaos.Config{Seed: 7, FailRate: 0.25, KillNode: -1}, concNodes)
	if err != nil {
		t.Fatalf("chaos: %v", err)
	}
	chaosJob := concWordCount("wc-chaos")
	chaosJob.Chaos = inj
	mr.SetAttemptLimit(chaosJob, 8)

	type runCase struct {
		name     string
		job      *mr.Job
		ref      map[int][]byte
		baseline *mr.Result // nil for the chaos job: retries perturb counters
	}
	cases := []runCase{
		{"tenantA-wordcount", concWordCount("wc-a"), wcRef, wcSerial},
		{"tenantB-wordcount-chaos", chaosJob, wcRef, nil},
		{"tenantA-syntext", concSynText("syn-a"), synRef, synSerial},
		{"tenantB-syntext", concSynText("syn-b"), synRef, synSerial},
	}

	results := make([]*mr.Result, len(cases))
	errs := make([]error, len(cases))
	var wg sync.WaitGroup
	for i := range cases {
		cases[i].job.Trace = trace.New(1 << 12)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = mr.Run(c, cases[i].job)
		}(i)
	}
	wg.Wait()

	for i, tc := range cases {
		if errs[i] != nil {
			t.Fatalf("%s: %v", tc.name, errs[i])
		}
		res := results[i]
		for p := range tc.ref {
			got, err := c.FS.ReadFile(res.Outputs[p])
			if err != nil {
				t.Fatalf("%s: reading partition %d: %v", tc.name, p, err)
			}
			if !bytes.Equal(got, tc.ref[p]) {
				t.Errorf("%s: partition %d differs from the serial reference", tc.name, p)
			}
		}
		if tc.baseline != nil {
			// Deterministic counters must match the serial run exactly: any
			// cross-job interleave would inflate them.
			for _, ctr := range deterministicCtrs {
				if got, want := res.Agg.Counters[ctr], tc.baseline.Agg.Counters[ctr]; got != want {
					t.Errorf("%s: counter %s = %d, serial run had %d", tc.name, ctr, got, want)
				}
			}
			// What the reduce side read is what the job's map outputs hold.
			if got, want := res.Agg.Counters[metrics.CtrReduceInputValues], res.Agg.Counters[metrics.CtrSpillRecords]; got != want {
				t.Errorf("%s: reduce read %d values from map outputs of %d records", tc.name, got, want)
			}
			// The chaos neighbor's injector must not have touched this job.
			if res.FailedAttempts != 0 || res.TaskRetries != 0 {
				t.Errorf("%s: %d failed attempts, %d retries leaked from the chaos job's injector",
					tc.name, res.FailedAttempts, res.TaskRetries)
			}
		}
		// Attempt accounting stays internally consistent per job.
		if got, want := res.MapAttempts+res.ReduceAttempts,
			res.MapTasks+res.ReduceTasks+res.TaskRetries+res.SpeculativeTasks+res.RecoveredMapTasks; got != want {
			t.Errorf("%s: attempt ledger inconsistent: %d attempts, accounted %d", tc.name, got, want)
		}
		// The job's own histograms recorded exactly its reduce queue waits
		// and fetches — a neighbor's record would inflate the counts.
		if got, want := res.Agg.Hists[metrics.HistReduceQueueWaitNS].Count, uint64(res.ReduceAttempts); got != want {
			t.Errorf("%s: queue-wait histogram has %d records, want %d (own reduce attempts)",
				tc.name, got, want)
		}
		if got, min := res.Agg.Hists[metrics.HistShuffleFetchNS].Count, uint64(res.MapTasks*res.ReduceTasks); got < min {
			t.Errorf("%s: fetch histogram has %d records, want at least %d (map tasks x partitions)",
				tc.name, got, min)
		}
	}
}

// TestPerJobChaosCannotKillNodes: node death is cluster-owned; a job spec
// carrying a killing injector must be rejected before it runs.
func TestPerJobChaosCannotKillNodes(t *testing.T) {
	c := newConcCluster(t)
	inj, err := chaos.New(chaos.Config{Seed: 1, FailRate: 0.1, KillNode: 1, KillAfterOps: 1}, concNodes)
	if err != nil {
		t.Fatalf("chaos: %v", err)
	}
	job := concWordCount("wc-kill")
	job.Chaos = inj
	if _, err := mr.Run(c, job); err == nil {
		t.Fatal("job with a node-killing private injector was accepted")
	}
}

// TestSequentialRunsShareCluster: many sequential Runs against one cluster
// reuse it without state bleed — distinct output prefixes, identical
// bytes each time.
func TestSequentialRunsShareCluster(t *testing.T) {
	c := newConcCluster(t)
	ref, err := mr.RunReference(c, concWordCount("wc-ref"))
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		res, err := mr.Run(c, concWordCount(fmt.Sprintf("wc-seq-%d", i)))
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		for p := range ref {
			got, err := c.FS.ReadFile(res.Outputs[p])
			if err != nil {
				t.Fatalf("run %d partition %d: %v", i, p, err)
			}
			if !bytes.Equal(got, ref[p]) {
				t.Errorf("run %d: partition %d differs from reference", i, p)
			}
		}
		for _, out := range res.Outputs {
			if seen[out] {
				t.Errorf("run %d: output name %s reused across runs", i, out)
			}
			seen[out] = true
		}
	}
}
