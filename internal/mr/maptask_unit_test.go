package mr

import (
	"slices"
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

// TestMapTaskPublishesRuns: a map task's output is its spill runs, in
// spill order — one run when the output fits the buffer, several when it
// spills more — named in the attempt's namespace and left on the node disk
// as they were written, with no merge timed and nothing else created.
func TestMapTaskPublishesRuns(t *testing.T) {
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
			out, rep, created, err := runMapTask(c, job, metrics.NewTaskMetrics(), 0, split, 0, 0, 0, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if (rep.Spill.Spills == 1) != tc.oneRun || len(out.runs) != rep.Spill.Spills {
				t.Fatalf("%d spills published as %d runs", rep.Spill.Spills, len(out.runs))
			}
			dir := attemptDir(job.filePrefix, 0, 0)
			var records int64
			for i, run := range out.runs {
				if want := attemptSpillName(dir, i); run.Name != want || created[i] != want {
					t.Errorf("run %d is %q, created %q; want %q", i, run.Name, created[i], want)
				}
				records += run.TotalRecords()
			}
			files := slices.DeleteFunc(c.Disks[0].(*vdisk.Mem).List(), func(name string) bool { return strings.HasPrefix(name, "dfs/") })
			if len(files) != len(out.runs) || len(created) != len(out.runs) {
				t.Errorf("node disk holds %v beside the input, the attempt created %v; want just its %d runs", files, created, len(out.runs))
			}
			if tc.oneRun && records != vocab || records < vocab {
				t.Errorf("the runs hold %d records of %d words", records, vocab)
			}
			if ops := rep.Metrics.Ops; ops[metrics.OpMerge] != 0 {
				t.Errorf("merge time %v on a task of %d runs", ops[metrics.OpMerge], rep.Spill.Spills)
			}
			for _, name := range out.files() {
				if err := c.Disks[0].Remove(name); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
