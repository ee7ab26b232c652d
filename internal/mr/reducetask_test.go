package mr

import (
	"fmt"
	"io"
	"testing"

	"mrtext/internal/kvio"
	"mrtext/internal/metrics"
)

// fakeStream yields a fixed set of records.
type fakeStream struct {
	recs []kvio.Record
	pos  int
}

func (f *fakeStream) Next() (k, v []byte, err error) {
	if f.pos >= len(f.recs) {
		return nil, nil, io.EOF
	}
	r := f.recs[f.pos]
	f.pos++
	return r.Key, r.Value, nil
}

func (f *fakeStream) Close() error { return nil }

// TestShuffleBytesAreFetchedSegmentLengths runs one map task on node 0,
// then a reduce attempt of each partition on node 1: once with the map
// output staged, once with a one-byte staging budget, so that every
// segment is direct-fetched, in the plain and the CompressRuns formats.
// Either way an attempt counts, as its shuffle volume, the run-index
// length of each segment it fetched, and a direct-fetched segment crosses
// the fabric at that on-disk length.
func TestShuffleBytesAreFetchedSegmentLengths(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		for _, staged := range []bool{true, false} {
			t.Run(fmt.Sprintf("compressed=%v/staged=%v", compressed, staged), func(t *testing.T) {
				c, split := oneSplit(t, wordsInput(4000, 8, 3000))
				job := acctJob(t, sumValues, 64<<10, nil)
				job.CompressRuns = compressed
				if !staged {
					job.stagingBytes = 1
				}
				out, _, _, err := runMapTask(c, job, metrics.NewTaskMetrics(), 0, split, 0, 0, 0, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if out.node != 0 || len(out.runs) < 2 || out.runs[0].Compressed != compressed {
					t.Fatalf("map output on node %d in %d runs, compressed %v; want node 0, several runs, compressed %v",
						out.node, len(out.runs), out.runs[0].Compressed, compressed)
				}
				var segs int64
				for _, run := range out.runs {
					for _, seg := range run.Segments {
						if seg.Len > 0 {
							segs++
						}
					}
				}
				svc := newShuffleService(c, job)
				defer svc.close()
				svc.offer(0, out)
				if staged {
					waitStagedSegments(t, svc, segs)
				}
				for part := 0; part < job.NumReducers; part++ {
					var want int64
					for _, run := range out.runs {
						want += run.Segments[part].Len
					}
					before := c.Net.Stats().BytesMoved
					_, won, _, rep, err := runReduceTask(c, job, metrics.NewTaskMetrics(), part, 1, 0, 0, nil, &shuffleEnv{svc: svc}, []mapOutput{out})
					if err != nil || !won {
						t.Fatalf("reduce %d: won=%v err=%v", part, won, err)
					}
					if got := rep.Metrics.Counters[metrics.CtrShuffleBytes]; got != want || rep.ShuffleBytes != want {
						t.Errorf("partition %d: counted %d shuffle bytes (reported %d), its segments hold %d", part, got, rep.ShuffleBytes, want)
					}
					if moved := c.Net.Stats().BytesMoved - before; !staged && moved != want {
						t.Errorf("partition %d: direct fetch moved %d bytes across the fabric, its segments hold %d", part, moved, want)
					}
				}
				wantDirect := segs
				if staged {
					wantDirect = 0
				}
				if got := svc.tm.Counter(metrics.CtrShuffleDirectFetches); got != wantDirect {
					t.Errorf("%d direct fetches, want %d", got, wantDirect)
				}
			})
		}
	}
}
