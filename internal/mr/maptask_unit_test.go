package mr

import (
	"strings"
	"testing"

	"mrtext/internal/kvio"
	"mrtext/internal/metrics"
	"mrtext/internal/vdisk"
)

func TestSplitByPartition(t *testing.T) {
	recs := []kvio.Record{
		{Part: 0, Key: []byte("a"), Value: []byte("1")},
		{Part: 2, Key: []byte("b"), Value: []byte("2")},
		{Part: 0, Key: []byte("c"), Value: []byte("3")},
	}
	byPart, err := splitByPartition(recs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(byPart[0]) != 2 || len(byPart[1]) != 0 || len(byPart[2]) != 1 {
		t.Fatalf("bad split: %d/%d/%d records", len(byPart[0]), len(byPart[1]), len(byPart[2]))
	}
}

// TestSplitByPartitionError: a record routed outside [0, parts) is a
// partitioner bug and must fail the task, not be silently absorbed into
// partition 0 (which would put keys in the wrong reducer's output).
func TestSplitByPartitionError(t *testing.T) {
	for _, bad := range []int{-1, 2, 99} {
		recs := []kvio.Record{
			{Part: 0, Key: []byte("fine"), Value: []byte("1")},
			{Part: bad, Key: []byte("stray"), Value: []byte("2")},
		}
		_, err := splitByPartition(recs, 2)
		if err == nil {
			t.Fatalf("partition %d of 2 accepted", bad)
		}
		if !strings.Contains(err.Error(), "stray") {
			t.Errorf("error should name the offending key: %v", err)
		}
	}
}

// TestOneRunTaskRenames: a map task whose output fits the buffer spills one
// run, and that run is its output — renamed into place, charged as merge
// output, with no merge timed and no spill file left. With a second run the
// task merges as before.
func TestOneRunTaskRenames(t *testing.T) {
	const lines, perLine, vocab = 2000, 8, 500
	c, split := oneSplit(t, wordsInput(lines, perLine, vocab))
	for _, tc := range []struct {
		name     string
		bufBytes int64
		oneRun   bool
	}{
		{"fits the buffer", 8 << 20, true},
		{"spills twice", 256 << 10, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			job := acctJob(t, sumValues, tc.bufBytes, nil)
			out, rep, created, err := runMapTask(c, job, metrics.NewTaskMetrics(), 0, split, 0, 0, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if (rep.Spill.Spills == 1) != tc.oneRun {
				t.Fatalf("%d spills", rep.Spill.Spills)
			}
			outName := attemptMapOutName(attemptDir(job.filePrefix, 0, 0))
			if len(created) != 1 || created[0] != outName || out.index.Name != outName {
				t.Errorf("created %v, output %q; want just %q", created, out.index.Name, outName)
			}
			for _, name := range c.Disks[0].(*vdisk.Mem).List() {
				if strings.Contains(name, "spill") {
					t.Errorf("spill run %s left on the node disk", name)
				}
			}
			ctr, ops := rep.Metrics.Counters, rep.Metrics.Ops
			if ctr[metrics.CtrMergeBytes] != out.index.TotalBytes() || out.index.TotalRecords() != vocab {
				t.Errorf("merge bytes %d, output %d bytes in %d records, want %d records", ctr[metrics.CtrMergeBytes], out.index.TotalBytes(), out.index.TotalRecords(), vocab)
			}
			if merged := ops[metrics.OpMerge] > 0; merged == tc.oneRun {
				t.Errorf("merge time %v on a task of %d runs", ops[metrics.OpMerge], rep.Spill.Spills)
			}
			if err := c.Disks[0].Remove(outName); err != nil {
				t.Fatal(err)
			}
		})
	}
}
