package mr_test

import (
	"testing"

	"mrtext/internal/chaos"
	"mrtext/internal/cluster"
	"mrtext/internal/metrics"
	"mrtext/internal/mr"
	"mrtext/internal/textgen"
)

// Pipelined-shuffle integration suite: the serial and pipelined shuffle
// paths must be byte-identical — with staging in memory, overflowed to
// disk, and under injected faults — and the pipeline must demonstrably
// overlap the map phase (that overlap is its whole reason to exist).

// TestPipelinedShuffleMatchesSerial runs the same job three ways — serial
// shuffle, pipelined with the default staging budget, and pipelined with
// a 1-byte budget that forces every staged segment to disk — and requires
// byte-identical outputs.
func TestPipelinedShuffleMatchesSerial(t *testing.T) {
	serialC, corpus := newFTCluster(t, nil)
	serialJob := ftJob(corpus, "wc-shuffle-serial")
	serialJob.SerialShuffle = true
	serialRes, err := mr.Run(serialC, serialJob)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	ref := readOutputs(t, serialC, serialRes)
	if serialRes.ShuffleEarlySegments != 0 || serialRes.ShuffleStagingPeak != 0 {
		t.Errorf("serial shuffle reported staging activity: early %d, peak %d",
			serialRes.ShuffleEarlySegments, serialRes.ShuffleStagingPeak)
	}

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
			res, err := mr.Run(c, job)
			if err != nil {
				t.Fatalf("pipelined run: %v", err)
			}
			assertOutputsMatch(t, c, res, ref)
			if tc.wantSpills && res.ShuffleStagedSpills == 0 {
				t.Error("1-byte staging budget produced no staged spills")
			}
			if !tc.wantSpills && res.ShuffleStagedSpills != 0 {
				t.Errorf("default staging budget overflowed %d segments", res.ShuffleStagedSpills)
			}
		})
	}
}

// TestShuffleFetchPlaneVariantsMatchSerial drives the fetch plane's two
// segment formats through the whole job and requires byte-identical
// outputs against a serial-shuffle reference for each: the compressed
// wire format squeezed through a 1-byte staging budget, and — input-
// driven — raw segments, from a corpus so small against so many reducers
// that every segment is a handful of records and the expansion guard
// declines to transcode any of them.
func TestShuffleFetchPlaneVariantsMatchSerial(t *testing.T) {
	cases := []struct {
		name          string
		block, corpus int64
		tune          func(job *mr.Job)
		wantSaving    bool // some segment shrank on the wire; false: all shipped raw
	}{
		{"compressed-one-byte-buffer", ftBlock, ftCorpus, func(job *mr.Job) { job.ShuffleBufferBytes = 1 }, true},
		{"tiny-raw-segments", 512, 4 << 10, func(job *mr.Job) { job.NumReducers = 64 }, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			serialC, corpus := newFTClusterSized(t, nil, tc.block, tc.corpus)
			serialJob := ftJob(corpus, "wc-variant-serial-"+tc.name)
			tc.tune(serialJob)
			serialJob.SerialShuffle = true
			serialRes, err := mr.Run(serialC, serialJob)
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			ref := readOutputs(t, serialC, serialRes)

			c, corpus := newFTClusterSized(t, nil, tc.block, tc.corpus)
			job := ftJob(corpus, "wc-variant-"+tc.name)
			tc.tune(job)
			res, err := mr.Run(c, job)
			if err != nil {
				t.Fatalf("pipelined run: %v", err)
			}
			assertOutputsMatch(t, c, res, ref)
			if res.Agg.Counters[metrics.CtrShuffleStagedSegments] == 0 {
				t.Error("no segment was staged: the fetch plane did not run")
			}
			if saved := res.ShuffleWireSavedBytes; (saved > 0) != tc.wantSaving {
				t.Errorf("wire compression saved %d bytes, want saving = %v", saved, tc.wantSaving)
			}
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

// TestPipelinedShuffleUnderChaosMatchesSerial reruns a slice of the
// determinism matrix against a serial-shuffle reference, pinning that the
// staged path keeps byte identity when attempts fail, retry and recover.
func TestPipelinedShuffleUnderChaosMatchesSerial(t *testing.T) {
	serialC, corpus := newFTCluster(t, nil)
	serialJob := ftJob(corpus, "wc-chaos-serial")
	serialJob.SerialShuffle = true
	serialRes, err := mr.Run(serialC, serialJob)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	ref := readOutputs(t, serialC, serialRes)

	cfg := chaos.Config{Seed: 17, FailRate: 0.20, KillNode: -1}
	c, corpus := newFTCluster(t, &cfg)
	res, err := mr.Run(c, ftJob(corpus, "wc-chaos-pipelined"))
	if err != nil {
		t.Fatalf("pipelined run under chaos: %v\nchaos log: %v", err, c.Chaos.Log())
	}
	assertOutputsMatch(t, c, res, ref)
	assertCounterIdentity(t, res)
}
