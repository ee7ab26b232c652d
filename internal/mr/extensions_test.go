package mr_test

import (
	"bytes"
	"testing"

	"mrtext/internal/apps"
	"mrtext/internal/cluster"
	"mrtext/internal/metrics"
	"mrtext/internal/mr"
	"mrtext/internal/textgen"
)

// extensionConfigs covers the §VII compressed-runs extension, alone and
// stacked on top of the paper's two optimizations.
var extensionConfigs = []struct {
	name  string
	apply func(j *mr.Job)
}{
	{"compress-runs", func(j *mr.Job) { j.CompressRuns = true }},
	{"kitchen-sink", func(j *mr.Job) {
		j.CompressRuns = true
		j.FreqBuf = &mr.FreqBufConfig{K: 100, SampleFraction: 0.05, MemFraction: 0.3, ShareTopK: true}
		j.SpillMatcher = true
	}},
}

// TestExtensionsMatchReference: the correctness invariant extends to the
// future-work feature — output stays byte-identical to the sequential
// reference with compressed runs, alone and combined.
func TestExtensionsMatchReference(t *testing.T) {
	c, corpus := newTextCluster(t, 3, 1<<20)
	ref, err := mr.RunReference(c, apps.WordCount(corpus))
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	for _, cfg := range extensionConfigs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			job := apps.WordCount(corpus)
			job.Name = "wcext-" + cfg.name
			job.SpillBufferBytes = 64 << 10
			cfg.apply(job)
			res, err := mr.Run(c, job)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			got := readOutputs(t, c, res)
			for p := range ref {
				if !bytes.Equal(got[p], ref[p]) {
					t.Errorf("partition %d differs from reference", p)
				}
			}
		})
	}
}

// TestExtensionsOnJoin: compression applies to a job without a combiner
// too. Output must match reference.
func TestExtensionsOnJoin(t *testing.T) {
	c, _ := newTextCluster(t, 2, 64<<10)
	mkLogs(t, c)
	ref, err := mr.RunReference(c, apps.AccessLogJoin("visits.log", "rankings.tbl"))
	if err != nil {
		t.Fatal(err)
	}
	job := apps.AccessLogJoin("visits.log", "rankings.tbl")
	job.Name = "joinext"
	job.CompressRuns = true
	job.SpillBufferBytes = 64 << 10
	res, err := mr.Run(c, job)
	if err != nil {
		t.Fatal(err)
	}
	got := readOutputs(t, c, res)
	for p := range ref {
		if !bytes.Equal(got[p], ref[p]) {
			t.Errorf("partition %d differs from reference", p)
		}
	}
}

// TestCompressionReducesSpillBytes verifies the extension does what it
// claims on text keys: fewer intermediate bytes on disk.
func TestCompressionReducesSpillBytes(t *testing.T) {
	c, corpus := newTextCluster(t, 2, 512<<10)
	run := func(compress bool) int64 {
		job := apps.InvertedIndex(corpus)
		job.Name = "compcmp"
		job.SpillBufferBytes = 128 << 10
		job.CompressRuns = compress
		res, err := mr.Run(c, job)
		if err != nil {
			t.Fatal(err)
		}
		return res.Agg.Counters[metrics.CtrSpillBytes] + res.Agg.Counters[metrics.CtrMergeBytes]
	}
	plain := run(false)
	compressed := run(true)
	if compressed >= plain {
		t.Errorf("compressed intermediate bytes %d ≥ plain %d", compressed, plain)
	}
}

// mkLogs generates small access-log inputs on the cluster.
func mkLogs(t *testing.T, c *cluster.Cluster) {
	t.Helper()
	logCfg := textgen.LogConfig{URLs: 200, Alpha: 0.8, Seed: 5}
	wv, err := c.FS.Create("visits.log", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := textgen.UserVisits(wv, logCfg, 64<<10); err != nil {
		t.Fatal(err)
	}
	if err := wv.Close(); err != nil {
		t.Fatal(err)
	}
	wr, err := c.FS.Create("rankings.tbl", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := textgen.Rankings(wr, logCfg); err != nil {
		t.Fatal(err)
	}
	if err := wr.Close(); err != nil {
		t.Fatal(err)
	}
}
