package mr_test

import (
	"testing"
	"time"

	"mrtext/internal/chaos"
	"mrtext/internal/mr"
)

// TestIngestChunkIdentity is the split-reader acceptance gate: the job's
// output must not depend on the arena chunk the map phase reads through —
// at the default, at chunks far smaller than a line's neighbourhood (512
// bytes) and than most lines (16 bytes, the reader's floor), and under an
// injected-fault cell from the chaos matrix. All runs are compared against
// the single-process reference implementation, so a reader that drops,
// duplicates or reorders a boundary line fails against ground truth.
func TestIngestChunkIdentity(t *testing.T) {
	ref := ftReference(t)

	kill := chaos.Config{Seed: 5, FailRate: 0.05, KillNode: 2, KillAfterOps: 40,
		DelayRate: 1, Delay: 2 * time.Millisecond}
	cells := []struct {
		name  string
		chunk int64
		cfg   *chaos.Config
	}{
		{"default-chunk", 0, nil},
		{"chunk-512", 512, nil}, // forces mid-line refills and slides
		{"chunk-16", 16, nil},   // every line outgrows the arena
		{"chaos-kill", 0, &kill},
	}
	for _, cell := range cells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			c, corpus := newFTCluster(t, cell.cfg)
			job := ftJob(corpus, "wc-ingest-"+cell.name)
			job.IngestChunkBytes = cell.chunk
			res, err := mr.Run(c, job)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			assertOutputsMatch(t, c, res, ref)
			assertCounterIdentity(t, res)
		})
	}
}

// TestIngestSynTextIdentity covers the second corpus shape of the chaos
// matrix: SynText output through the split reader must match the
// reference executor too.
func TestIngestSynTextIdentity(t *testing.T) {
	c, corpus := newFTCluster(t, nil)
	ref, err := mr.RunReference(c, ftSynJob(corpus, "syn-ingest-ref"))
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	res, err := mr.Run(c, ftSynJob(corpus, "syn-ingest"))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	assertOutputsMatch(t, c, res, ref)
}
