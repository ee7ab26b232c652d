package mrserve

import (
	"runtime"
	"testing"

	"mrtext/internal/cluster"
)

// retainedPerJobBound is what the service may keep of one finished 1 MiB
// WordCount job beyond its output files: the job-table entry, its spec and
// its rendered result digest, about 38 KB on linux/amd64 (the job's whole
// Result beside them read 49 KB). A per-job recorder nothing reads, such
// as a 16,384-event tracer (896 KiB of rings), does not fit.
const retainedPerJobBound = 128 << 10

// TestFinishedJobsRetainOnlyTheirDigest runs small jobs through the
// service and measures the live heap the finished ones keep. Warm-up jobs
// first generate the shared dataset and fill the cluster's map workspaces,
// so what grows afterwards is what the job table holds per job.
func TestFinishedJobsRetainOnlyTheirDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 14 jobs")
	}
	c, err := cluster.New(cluster.Fast(4))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Cluster: c, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(s.Close)
	spec := Spec{App: "wordcount", InputMB: 1}
	run := func(n int) (outputBytes int64) {
		for i := 0; i < n; i++ {
			j, err := s.Submit("a", spec)
			if err != nil {
				t.Fatal(err)
			}
			<-j.done
			status, res := j.snapshotStatus()
			if status != StatusDone {
				t.Fatalf("job %s ended %s: %v", j.ID, status, j.view().Error)
			}
			for _, name := range res.Outputs {
				size, err := c.FS.Size(name)
				if err != nil {
					t.Fatal(err)
				}
				outputBytes += size
			}
		}
		return outputBytes
	}

	run(4)
	before := liveHeap()
	const jobs = 10
	outputBytes := run(jobs)
	kept := (int64(liveHeap()) - int64(before) - outputBytes) / jobs
	t.Logf("%d jobs: %d B of output each, %d B more kept each", jobs, outputBytes/jobs, kept)
	if kept > retainedPerJobBound {
		t.Errorf("a finished job keeps %d B beyond its output, over the %d B bound", kept, retainedPerJobBound)
	}
}

// liveHeap is the heap in use after a full collection. Two collections
// also empty sync.Pool victim caches.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
