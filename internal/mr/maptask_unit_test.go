package mr

import (
	"strings"
	"testing"

	"mrtext/internal/kvio"
	"mrtext/internal/metrics"
	"mrtext/internal/spillbuf"
	"mrtext/internal/vdisk"
)

// TestSplitByPartitionError: a drained frequency-buffer record routed
// outside [0, NumReducers) is a routing bug and must fail the task where it
// enters the spill path, naming the key, not land in some reducer's output
// (or index past the spill buffer's partition table). What was drained
// before it went down the spill path like any other record.
func TestSplitByPartitionError(t *testing.T) {
	job := acctJob(t, sumValues, 64<<10, nil)
	for _, bad := range []int{-1, job.NumReducers, 99} {
		tm := metrics.NewTaskMetrics()
		buf, err := spillbuf.New(job.SpillBufferBytes, job.newController(), tm)
		if err != nil {
			t.Fatal(err)
		}
		mc := &mapCollector{job: job, tm: tm, buf: buf}
		_, err = mc.appendDrained([]kvio.Record{
			{Part: 0, Key: []byte("fine"), Value: []byte("1")},
			{Part: bad, Key: []byte("stray"), Value: []byte("2")},
		})
		if err == nil {
			t.Fatalf("partition %d of %d accepted", bad, job.NumReducers)
		}
		if !strings.Contains(err.Error(), "stray") {
			t.Errorf("error should name the offending key: %v", err)
		}
		buf.Close()
		spill, ok := buf.NextSpill()
		if !ok || spill.Recs.Len() != 1 || string(spill.Recs.Part(0).Key(0)) != "fine" {
			t.Errorf("partition %d: the record drained before the stray one did not reach the spill buffer", bad)
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
