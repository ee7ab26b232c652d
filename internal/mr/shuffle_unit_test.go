package mr

import (
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"mrtext/internal/chaos"
	"mrtext/internal/cluster"
	"mrtext/internal/kvio"
	"mrtext/internal/metrics"
)

// --- stagingBuffer ---

// TestStagingBufferBackpressure pins the budget contract: reservations
// inside the budget succeed, a reservation that would exceed it blocks
// until space is released, and an oversized reservation fails outright.
func TestStagingBufferBackpressure(t *testing.T) {
	b := newStagingBuffer(100)
	if ok, _ := b.reserve(60, 0); !ok {
		t.Fatal("in-budget reservation refused")
	}
	if ok, _ := b.reserve(50, 0); ok {
		t.Fatal("over-budget reservation granted without waiting")
	}
	if ok, _ := b.reserve(101, -1); ok {
		t.Fatal("reservation larger than the whole budget granted")
	}

	granted := make(chan bool)
	go func() { ok, _ := b.reserve(50, -1); granted <- ok }()
	select {
	case <-granted:
		t.Fatal("blocked reservation returned before space was released")
	case <-time.After(20 * time.Millisecond):
	}
	b.release(60)
	select {
	case ok := <-granted:
		if !ok {
			t.Fatal("reservation failed after space was released")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reservation still blocked after release")
	}
	if got := b.peakBytes(); got != 60 {
		t.Fatalf("peak = %d, want 60", got)
	}
}

// TestStagingBufferTimeoutAndClose pins the two unblocking paths that are
// not a release: the bounded wait expiring, and close failing all waiters.
func TestStagingBufferTimeoutAndClose(t *testing.T) {
	b := newStagingBuffer(10)
	if ok, _ := b.reserve(10, 0); !ok {
		t.Fatal("in-budget reservation refused")
	}
	start := time.Now()
	if ok, _ := b.reserve(1, 5*time.Millisecond); ok {
		t.Fatal("reservation granted with the budget exhausted")
	}
	if waited := time.Since(start); waited < 5*time.Millisecond {
		t.Fatalf("bounded wait returned after %v, before its deadline", waited)
	}

	granted := make(chan bool)
	go func() { ok, _ := b.reserve(1, -1); granted <- ok }()
	time.Sleep(5 * time.Millisecond)
	b.close()
	select {
	case ok := <-granted:
		if ok {
			t.Fatal("reservation granted on a closed buffer")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("close did not wake the blocked reservation")
	}
	if ok, _ := b.reserve(1, 0); ok {
		t.Fatal("reservation granted after close")
	}
}

// --- shuffleService ---

const (
	unitParts = 4
	unitMaps  = 3
)

// newUnitCluster builds a 2-node cluster, optionally chaos-wrapped.
func newUnitCluster(t *testing.T, chaosCfg *chaos.Config) *cluster.Cluster {
	t.Helper()
	cfg := cluster.Fast(2)
	cfg.Chaos = chaosCfg
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	return c
}

// writeUnitMapOuts writes unitMaps committed map outputs across the
// cluster's disks and returns their locations. Partition p of map task m
// holds keys "k<p>-<i>" in sorted order, except partition 2 of every
// output, which is left empty. compressed selects the on-disk format
// CompressRuns writes.
func writeUnitMapOuts(t *testing.T, c *cluster.Cluster, compressed bool) []mapOutput {
	t.Helper()
	outs := make([]mapOutput, unitMaps)
	for m := 0; m < unitMaps; m++ {
		node := m % c.Nodes()
		sink, err := kvio.NewRunSink(c.Disks[node], fmt.Sprintf("unit-m%d", m), unitParts, compressed)
		if err != nil {
			t.Fatalf("sink: %v", err)
		}
		for p := 0; p < unitParts; p++ {
			if p == 2 {
				continue
			}
			for i := 0; i < 50; i++ {
				k := []byte(fmt.Sprintf("k%d-%03d", p, i))
				v := []byte(fmt.Sprintf("m%d", m))
				if err := sink.Append(p, k, v); err != nil {
					t.Fatalf("append: %v", err)
				}
			}
		}
		idx, err := sink.Close()
		if err != nil {
			t.Fatalf("close sink: %v", err)
		}
		outs[m] = mapOutput{node: node, index: idx}
	}
	return outs
}

// unitShuffleJob is the minimal job configuration the service reads.
func unitShuffleJob(bufferBytes int64) *Job {
	return &Job{
		NumReducers:        unitParts,
		ShuffleBufferBytes: bufferBytes,
		RetryBackoff:       time.Millisecond,
		Hists:              NewHists(),
		filePrefix:         "unit",
		cancel:             new(atomic.Bool),
	}
}

// drainStream reads a stream to EOF and closes it.
func drainStream(t *testing.T, s kvio.Stream) [][2]string {
	t.Helper()
	var out [][2]string
	for {
		k, v, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		out = append(out, [2]string{string(k), string(v)})
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return out
}

// waitStagedSegments polls until the service has staged want segments.
func waitStagedSegments(t *testing.T, svc *shuffleService, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for svc.tm.Counter(metrics.CtrShuffleStagedSegments) < want {
		if time.Now().After(deadline) {
			t.Fatalf("staged %d of %d segments before deadline",
				svc.tm.Counter(metrics.CtrShuffleStagedSegments), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShuffleServiceStagesAndTakes offers committed map outputs to the
// copier pools, in both on-disk formats, and checks that every segment —
// including empty ones — is staged in the format it was written in, that
// it decodes through take to exactly the records of a direct positioned
// read, and that takes are non-destructive (a duplicate attempt can
// re-take).
func TestShuffleServiceStagesAndTakes(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		compressed := compressed
		t.Run(fmt.Sprintf("compressed=%v", compressed), func(t *testing.T) {
			c := newUnitCluster(t, nil)
			outs := writeUnitMapOuts(t, c, compressed)
			svc := newShuffleService(c, unitShuffleJob(1<<20))
			defer svc.close()

			for m, out := range outs {
				svc.offer(m, out)
			}
			waitStagedSegments(t, svc, unitParts*unitMaps)
			if spills := svc.tm.Counter(metrics.CtrShuffleStagedSpills); spills != 0 {
				t.Fatalf("%d staged segments overflowed a %d-byte budget", spills, 1<<20)
			}

			for p := 0; p < unitParts; p++ {
				for m, out := range outs {
					svc.mu.Lock()
					st := svc.staged[p][m]
					svc.mu.Unlock()
					if st.compressed != compressed {
						t.Fatalf("part %d src %d staged with compressed = %v, written with %v", p, m, st.compressed, compressed)
					}
					direct, err := kvio.OpenRunPart(c.Disks[out.node], out.index, p)
					if err != nil {
						t.Fatalf("direct open: %v", err)
					}
					want := drainStream(t, direct)
					for round := 0; round < 2; round++ { // takes must not consume
						st, _, ok := svc.take(p, m, 0, spanner{})
						if !ok {
							t.Fatalf("part %d src %d round %d: staged segment missing", p, m, round)
						}
						got := drainStream(t, st)
						if len(got) != len(want) {
							t.Fatalf("part %d src %d: %d staged records, want %d", p, m, len(got), len(want))
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("part %d src %d record %d: staged %q, direct %q", p, m, i, got[i], want[i])
							}
						}
					}
				}
			}

			// A released partition stops serving takes.
			svc.release(1)
			if _, _, ok := svc.take(1, 0, 0, spanner{}); ok {
				t.Fatal("released partition still serves staged segments")
			}
		})
	}
}

// TestStagingAccountsWireBytes pins staging's byte accounting: a segment
// crosses the fabric and is staged as it sits on the source disk, so the
// staged bytes equal the segments' on-disk bytes, and a budget equal to
// that total stages everything in memory with zero spills.
func TestStagingAccountsWireBytes(t *testing.T) {
	c := newUnitCluster(t, nil)
	outs := writeUnitMapOuts(t, c, false)
	var diskTotal int64
	for _, out := range outs {
		diskTotal += out.index.TotalBytes()
	}

	svc := newShuffleService(c, unitShuffleJob(diskTotal))
	defer svc.close()
	for m, out := range outs {
		svc.offer(m, out)
	}
	waitStagedSegments(t, svc, unitParts*unitMaps)
	if staged := svc.tm.Counter(metrics.CtrShuffleStagedBytes); staged != diskTotal {
		t.Fatalf("staged %d bytes, the segments hold %d on disk", staged, diskTotal)
	}
	if spills := svc.tm.Counter(metrics.CtrShuffleStagedSpills); spills != 0 {
		t.Fatalf("%d spills with a budget equal to the on-disk total %d", spills, diskTotal)
	}
	if peak := svc.buf.peakBytes(); peak != diskTotal {
		t.Fatalf("staging peak %d, want the on-disk total %d", peak, diskTotal)
	}
}

// TestShuffleServiceOverflowsToDisk forces every segment past a 1-byte
// staging budget and checks the disk-backed staging path returns the same
// records as the in-memory one.
func TestShuffleServiceOverflowsToDisk(t *testing.T) {
	c := newUnitCluster(t, nil)
	outs := writeUnitMapOuts(t, c, false)
	svc := newShuffleService(c, unitShuffleJob(1))
	defer svc.close()

	for m, out := range outs {
		svc.offer(m, out)
	}
	waitStagedSegments(t, svc, unitParts*unitMaps)
	// Non-empty segments cannot fit a 1-byte budget; empty partition-2
	// segments stage in memory for free.
	wantSpills := int64((unitParts - 1) * unitMaps)
	if spills := svc.tm.Counter(metrics.CtrShuffleStagedSpills); spills != wantSpills {
		t.Fatalf("staged spills = %d, want %d", spills, wantSpills)
	}

	for p := 0; p < unitParts; p++ {
		for m, out := range outs {
			direct, err := kvio.OpenRunPart(c.Disks[out.node], out.index, p)
			if err != nil {
				t.Fatalf("direct open: %v", err)
			}
			want := drainStream(t, direct)
			st, _, ok := svc.take(p, m, 1, spanner{})
			if !ok {
				t.Fatalf("part %d src %d: overflowed segment missing", p, m)
			}
			got := drainStream(t, st)
			if len(got) != len(want) {
				t.Fatalf("part %d src %d: %d staged records, want %d", p, m, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("part %d src %d record %d: staged %q, direct %q", p, m, i, got[i], want[i])
				}
			}
		}
	}
}

// TestFetchAbsorbsInjectedFault pins the chaos contract of the pipelined
// fetch: an injected fault at SiteShuffleFetch is absorbed by per-source
// retry — the fetch succeeds, the fault is counted as a retry, and the
// streams carry exactly the records a fault-free direct read returns.
func TestFetchAbsorbsInjectedFault(t *testing.T) {
	cfg := &chaos.Config{Seed: 3, FailRate: 1.0, KillNode: -1}
	c := newUnitCluster(t, cfg)
	outs := writeUnitMapOuts(t, c, false)
	job := unitShuffleJob(1 << 20)
	svc := newShuffleService(c, job)
	defer svc.close()
	sh := &shuffleEnv{svc: svc, backoff: job.RetryBackoff}

	c.Chaos.Arm()
	defer c.Chaos.Disarm()
	const part, node = 0, 0
	// FailRate 1 guarantees the plan carries a fault; restricting the
	// sites to SiteShuffleFetch guarantees where it fires.
	plan := c.Chaos.Plan(node, part, 0, []chaos.Site{chaos.SiteShuffleFetch})

	acct := &reduceAccount{tm: metrics.NewTaskMetrics()}
	streams, err := fetchConcurrent(c, job, sh, part, node, plan, outs, acct, spanner{})
	if err != nil {
		t.Fatalf("fetch did not absorb the injected fault: %v", err)
	}
	if got := svc.tm.Counter(metrics.CtrShuffleFetchRetries); got != 1 {
		t.Fatalf("absorbed fetch retries = %d, want 1", got)
	}
	for i, st := range streams {
		direct, derr := kvio.OpenRunPart(c.Disks[outs[i].node], outs[i].index, part)
		if derr != nil {
			t.Fatalf("direct open: %v", derr)
		}
		want := drainStream(t, direct)
		got := drainStream(t, st)
		if len(got) != len(want) {
			t.Fatalf("src %d: %d records, want %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("src %d record %d: %q, want %q", i, j, got[j], want[j])
			}
		}
	}
	if stats := c.Chaos.Stats(); stats.Faults != 1 {
		t.Fatalf("chaos fired %d faults, want exactly 1", stats.Faults)
	}
}

// TestStageAfterCloseIsNotAnOverflow: a copier still holding a fetched
// segment when the job ends finds the staging buffer shut, not full — the
// segment is dropped, not written to the home disk and counted as a
// staging overflow.
func TestStageAfterCloseIsNotAnOverflow(t *testing.T) {
	c := newUnitCluster(t, nil)
	svc := newShuffleService(c, unitShuffleJob(1<<20))
	svc.close()
	if svc.park(0, 0, 0, 0, []byte("segment"), false) {
		t.Error("segment staged on a closed service")
	}
	if got := svc.tm.Counter(metrics.CtrShuffleStagedSpills); got != 0 {
		t.Errorf("%d staging overflows counted after close", got)
	}
}
