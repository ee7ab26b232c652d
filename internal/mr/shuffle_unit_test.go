package mr

import (
	"errors"
	"fmt"
	"io"
	"regexp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mrtext/internal/chaos"
	"mrtext/internal/cluster"
	"mrtext/internal/kvio"
	"mrtext/internal/metrics"
	"mrtext/internal/vdisk"
)

// --- stagingBuffer ---

// TestStagingBufferBackpressure pins the budget contract: a reservation
// inside the budget succeeds, one that would exceed it is refused at once —
// there is no wait — and succeeds after a release made room; the peak is
// the high-water mark of what was granted.
func TestStagingBufferBackpressure(t *testing.T) {
	b := &stagingBuffer{budget: 100}
	if !b.reserve(60) {
		t.Fatal("in-budget reservation refused")
	}
	if b.reserve(50) {
		t.Fatal("over-budget reservation granted")
	}
	if b.reserve(101) {
		t.Fatal("reservation larger than the whole budget granted")
	}
	if !b.reserve(0) {
		t.Fatal("zero-byte reservation refused")
	}
	b.release(60)
	if !b.reserve(50) {
		t.Fatal("reservation refused after space was released")
	}
	if !b.reserve(50) {
		t.Fatal("reservation filling the budget exactly refused")
	}
	if b.reserve(1) {
		t.Fatal("reservation granted with the budget exhausted")
	}
	if got := b.peakBytes(); got != 100 {
		t.Fatalf("peak = %d, want 100", got)
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
						st, ok := svc.take(p, m, 0, spanner{})
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
			if _, ok := svc.take(1, 0, 0, spanner{}); ok {
				t.Fatal("released partition still serves staged segments")
			}
		})
	}
}

// TestStagingAccountsWireBytes pins staging's byte accounting: a segment
// crosses the fabric and is staged as it sits on the source disk, so the
// staged bytes equal the segments' on-disk bytes, and a budget equal to
// that total stages every segment.
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
	if peak := svc.buf.peakBytes(); peak != diskTotal {
		t.Fatalf("staging peak %d, want the on-disk total %d", peak, diskTotal)
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
	sh := &shuffleEnv{svc: svc}

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

// waitCopiersIdle polls until no request is queued and no reservation is
// held for a segment not yet staged: every offered segment has been staged
// or dropped. (A copier between taking a request and reserving for it is
// not seen, which is why a test that must not miss one closes the service
// — close joins the copiers — before it looks.)
func waitCopiersIdle(t *testing.T, svc *shuffleService) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		svc.mu.Lock()
		queued, held := 0, int64(0)
		for p := range svc.pend {
			queued += len(svc.pend[p])
			for _, st := range svc.staged[p] {
				held += int64(len(st.data))
			}
		}
		svc.buf.mu.Lock()
		inFlight := svc.buf.used - held
		svc.buf.mu.Unlock()
		svc.mu.Unlock()
		if queued == 0 && inFlight == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("copiers not idle before deadline: %d requests queued, %d bytes reserved in flight", queued, inFlight)
		}
		time.Sleep(time.Millisecond)
	}
}

// unitOpens sums the read opens of the cluster's disks.
func unitOpens(c *cluster.Cluster) int64 {
	var n int64
	for _, d := range c.Disks {
		n += d.Stats().Opens
	}
	return n
}

// TestOverBudgetSegmentsAreDirectFetched gives staging a third of the bytes
// on offer. What fits is staged and what does not stays on the source disk:
// a reduce attempt's fetch resolves every source exactly once, from staging
// (a countedStream) or by direct fetch (a chargedStream), the two add up to
// maps × partitions, and either way the records are the ones on the source
// disk.
func TestOverBudgetSegmentsAreDirectFetched(t *testing.T) {
	c := newUnitCluster(t, nil)
	outs := writeUnitMapOuts(t, c, false)
	var diskTotal int64
	for _, out := range outs {
		diskTotal += out.index.TotalBytes()
	}
	budget := diskTotal / 3
	job := unitShuffleJob(budget)
	svc := newShuffleService(c, job)
	defer svc.close()
	for m, out := range outs {
		svc.offer(m, out)
	}
	waitCopiersIdle(t, svc)

	sh := &shuffleEnv{svc: svc}
	staged, direct := 0, 0
	for p := 0; p < unitParts; p++ {
		acct := &reduceAccount{tm: metrics.NewTaskMetrics()}
		streams, err := fetchConcurrent(c, job, sh, p, 0, nil, outs, acct, spanner{})
		if err != nil {
			t.Fatalf("part %d: fetch: %v", p, err)
		}
		for m, st := range streams {
			switch st.(type) {
			case *countedStream:
				staged++
			case *chargedStream:
				direct++
			default:
				t.Fatalf("part %d src %d: fetch returned a %T", p, m, st)
			}
			ref, err := kvio.OpenRunPart(c.Disks[outs[m].node], outs[m].index, p)
			if err != nil {
				t.Fatalf("direct open: %v", err)
			}
			want, got := drainStream(t, ref), drainStream(t, st)
			if !slices.Equal(got, want) {
				t.Fatalf("part %d src %d: fetched %d records, the source disk holds %d", p, m, len(got), len(want))
			}
		}
	}
	if staged+direct != unitParts*unitMaps {
		t.Errorf("%d staged + %d direct fetches, want %d", staged, direct, unitParts*unitMaps)
	}
	if hits := svc.tm.Counter(metrics.CtrShuffleStagedHits); hits != int64(staged) {
		t.Errorf("%d staged hits counted, %d sources came from staging", hits, staged)
	}
	if stagedBytes := svc.tm.Counter(metrics.CtrShuffleStagedBytes); stagedBytes == 0 || stagedBytes > budget {
		t.Errorf("staged %d bytes under a budget of %d", stagedBytes, budget)
	}
	if direct == 0 {
		t.Errorf("no direct fetch with %d bytes on offer to a budget of %d", diskTotal, budget)
	}
	if peak := svc.buf.peakBytes(); peak > budget {
		t.Errorf("staging peak %d over the budget %d", peak, budget)
	}
}

// TestReserveBeforeRead: a copier reserves a segment's length from the run
// index before it touches the source disk, so a refused segment costs no
// disk operation — with a one-byte budget no disk sees an open and only
// empty segments are staged — and a copier that reserved and then failed
// to read, to transfer, or to find the service still open gives the bytes
// back.
func TestReserveBeforeRead(t *testing.T) {
	t.Run("refused", func(t *testing.T) {
		c := newUnitCluster(t, nil)
		outs := writeUnitMapOuts(t, c, false)
		before := unitOpens(c)
		svc := newShuffleService(c, unitShuffleJob(1))
		for m, out := range outs {
			svc.offer(m, out)
		}
		waitCopiersIdle(t, svc)
		svc.close()
		if opens := unitOpens(c) - before; opens != 0 {
			t.Errorf("%d opens on the source disks for segments the budget refused", opens)
		}
		if n := svc.tm.Counter(metrics.CtrShuffleStagedBytes); n != 0 {
			t.Errorf("%d bytes staged under a one-byte budget", n)
		}
		if n := svc.tm.Counter(metrics.CtrShuffleStagedSegments); n > unitMaps {
			t.Errorf("%d segments staged, only %d are empty", n, unitMaps)
		}
	})

	failures := []struct {
		name  string
		rig   func(c *cluster.Cluster, outs []mapOutput)
		close bool // close the service before the copy instead of after
	}{
		{"read fails", func(_ *cluster.Cluster, outs []mapOutput) {
			for m := range outs {
				outs[m].index.Name = "no-such-run"
			}
		}, false},
		{"transfer fails", func(c *cluster.Cluster, _ []mapOutput) {
			c.Net.SetFaultHook(func(src, dst int) error {
				if src != dst {
					return fmt.Errorf("link %d→%d down", src, dst)
				}
				return nil
			})
		}, false},
		{"service closed", func(*cluster.Cluster, []mapOutput) {}, true},
	}
	for _, tc := range failures {
		t.Run(tc.name, func(t *testing.T) {
			c := newUnitCluster(t, nil)
			outs := writeUnitMapOuts(t, c, false)
			tc.rig(c, outs)
			svc := newShuffleService(c, unitShuffleJob(1<<20))
			if tc.close {
				svc.close()
			}
			// Partition 1 is staged on node 1; map task 0's output is on node 0.
			svc.stageSegment(1, 0, stageReq{src: 0, out: outs[0]})
			if !tc.close {
				svc.mu.Lock()
				st := svc.staged[1][0]
				svc.mu.Unlock()
				if st != nil {
					t.Error("segment staged although its copy failed")
				}
			}
			if n := svc.tm.Counter(metrics.CtrShuffleStagedSegments); n != 0 {
				t.Errorf("%d segments counted as staged", n)
			}
			svc.buf.mu.Lock()
			used := svc.buf.used
			svc.buf.mu.Unlock()
			if used != 0 {
				t.Errorf("%d bytes still reserved after the failed copy", used)
			}
			svc.close()
		})
	}
}

// holdDisk wraps a node disk: it counts the opens of every section and
// holds the first open of a section hold matches until the test lets it go
// — on (*hold).release's value, nil to proceed or an error to fail the
// open with. Sections are named name@offset.
type holdDisk struct {
	vdisk.Disk
	h *hold
}

type hold struct {
	match   func(section string) bool
	entered chan struct{} // closed when the held open arrives
	release chan error

	mu    sync.Mutex
	held  string         // the held section
	opens map[string]int // opens by section
}

// section names partition part of a map output as holdDisk counts it.
func section(out mapOutput, part int) string {
	return fmt.Sprintf("%s@%d", out.index.Name, out.index.Segments[part].Off)
}

func newHold(match func(section string) bool) *hold {
	return &hold{match: match, entered: make(chan struct{}), release: make(chan error, 1), opens: map[string]int{}}
}

func (h *hold) wrap(c *cluster.Cluster) {
	for i, d := range c.Disks {
		c.Disks[i] = holdDisk{Disk: d, h: h}
	}
}

// count returns how many times the section was opened.
func (h *hold) count(section string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.opens[section]
}

// heldOpens returns how many times the held section was opened.
func (h *hold) heldOpens() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.opens[h.held]
}

func (d holdDisk) OpenSection(name string, off, length int64) (io.ReadCloser, error) {
	h := d.h
	key := fmt.Sprintf("%s@%d", name, off)
	h.mu.Lock()
	h.opens[key]++
	first := h.held == "" && h.match(key)
	if first {
		h.held = key
	}
	h.mu.Unlock()
	if first {
		close(h.entered)
		if err := <-h.release; err != nil {
			return nil, err
		}
	}
	return d.Disk.OpenSection(name, off, length)
}

// awaitHeld waits for the held open to arrive.
func (h *hold) awaitHeld(t *testing.T) {
	t.Helper()
	select {
	case <-h.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no copier opened the held section")
	}
}

// isClosed reports whether close has begun.
func (s *shuffleService) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// bufUsed reads the staging budget's reservation.
func bufUsed(svc *shuffleService) int64 {
	svc.buf.mu.Lock()
	defer svc.buf.mu.Unlock()
	return svc.buf.used
}

// TestTakeWaitsForInFlightCopy holds one copier's read of a segment. A
// reduce attempt that needs the segment meanwhile waits for that copy
// instead of reading the source again, so with the copy let go the source
// disk sees one open per (map output, partition); with the copy failed the
// attempt direct-fetches it, and either way the attempt's records — and a
// whole job's output — are the source's. The staging budget ends at zero
// whether the copy lands, fails, or outlives its partition or its service.
func TestTakeWaitsForInFlightCopy(t *testing.T) {
	const part, src = 1, 0
	for _, fail := range []bool{false, true} {
		t.Run(fmt.Sprintf("copy-fails=%v", fail), func(t *testing.T) {
			c := newUnitCluster(t, nil)
			outs := writeUnitMapOuts(t, c, false)
			raw := slices.Clone(c.Disks)
			held := section(outs[src], part)
			h := newHold(func(s string) bool { return s == held })
			h.wrap(c)
			job := unitShuffleJob(1 << 20)
			svc := newShuffleService(c, job)
			// Only partition 1's copiers get the outputs: the other two of
			// its segments are staged, the held one stays in flight.
			for m, out := range outs {
				svc.mu.Lock()
				svc.pend[part] = append(svc.pend[part], stageReq{src: m, out: out})
				svc.cond.Broadcast()
				svc.mu.Unlock()
			}
			h.awaitHeld(t)
			waitStagedSegments(t, svc, unitMaps-1)

			type fetched struct {
				streams []kvio.Stream
				err     error
			}
			done := make(chan fetched, 1)
			acct := &reduceAccount{tm: metrics.NewTaskMetrics()}
			go func() {
				streams, err := fetchConcurrent(c, job, &shuffleEnv{svc: svc}, part, 0, nil, outs, acct, spanner{})
				done <- fetched{streams, err}
			}()
			waitParked(t, "(*shuffleService).take")
			if n := h.count(held); n != 1 {
				t.Fatalf("%d opens of the held section while its copy is in flight, want 1", n)
			}
			var copyErr error
			if fail {
				copyErr = errors.New("held copy failed")
			}
			h.release <- copyErr
			f := <-done
			if f.err != nil {
				t.Fatalf("fetch: %v", f.err)
			}
			for m, st := range f.streams {
				ref, err := kvio.OpenRunPart(raw[outs[m].node], outs[m].index, part)
				if err != nil {
					t.Fatal(err)
				}
				if want, got := drainStream(t, ref), drainStream(t, st); !slices.Equal(got, want) {
					t.Fatalf("source %d: fetched %d records, the source disk holds %d", m, len(got), len(want))
				}
				_, direct := st.(*chargedStream)
				if direct != (fail && m == src) {
					t.Errorf("source %d came by direct fetch = %v (copy failed: %v)", m, direct, fail)
				}
			}
			for m, out := range outs {
				want := 1
				if fail && m == src {
					want = 2 // the failed copy's open and the direct fetch's
				}
				if n := h.count(section(out, part)); n != want {
					t.Errorf("source %d partition %d opened %d times, want %d", m, part, n, want)
				}
			}
			svc.close()
			if used := bufUsed(svc); used != 0 {
				t.Errorf("%d bytes still reserved after close", used)
			}
		})
	}

	// The copy outlives its partition, or its service: the reservation it
	// holds comes back when it finishes, and nothing is given back twice.
	for _, ends := range []string{"release", "close"} {
		t.Run("copy-outlives-"+ends, func(t *testing.T) {
			c := newUnitCluster(t, nil)
			outs := writeUnitMapOuts(t, c, false)
			held := section(outs[src], part)
			h := newHold(func(s string) bool { return s == held })
			h.wrap(c)
			svc := newShuffleService(c, unitShuffleJob(1<<20))
			for m, out := range outs {
				svc.offer(m, out)
			}
			h.awaitHeld(t)
			if ends == "release" {
				svc.release(part)
				h.release <- nil
				waitCopiersIdle(t, svc) // the held copy has given its bytes back
			} else {
				closed := make(chan struct{})
				go func() { svc.close(); close(closed) }()
				for !svc.isClosed() {
					runtime.Gosched()
				}
				h.release <- nil
				<-closed // close joins the held copier
			}
			svc.close()
			if used := bufUsed(svc); used != 0 {
				t.Errorf("%d bytes still reserved after close", used)
			}
		})
	}

	// A whole job whose first copier read of a committed map output is
	// held: the reduce attempt of that partition waits for it, and the
	// output is the reference executor's whether the copy lands or fails.
	committedOut := regexp.MustCompile(`/m\d{5}/out@`)
	for _, fail := range []bool{false, true} {
		t.Run(fmt.Sprintf("job/copy-fails=%v", fail), func(t *testing.T) {
			c := buildFS(t, wordsInput(6000, 8, 2500), 128<<10)
			want, err := RunReference(c, wordSumSpec("in-flight-ref"))
			if err != nil {
				t.Fatal(err)
			}
			h := newHold(committedOut.MatchString)
			h.wrap(c)
			type ran struct {
				res *Result
				err error
			}
			done := make(chan ran, 1)
			go func() {
				res, err := Run(c, wordSumSpec("in-flight"))
				done <- ran{res, err}
			}()
			h.awaitHeld(t)
			waitParked(t, "(*shuffleService).take")
			var copyErr error
			if fail {
				copyErr = errors.New("held copy failed")
			}
			h.release <- copyErr
			r := <-done
			if r.err != nil {
				t.Fatalf("run: %v", r.err)
			}
			assertReferenceOutput(t, c, r.res, want)
			wantOpens := 1
			if fail {
				wantOpens = 2 // the failed copy's open and the direct fetch's
			}
			if n := h.heldOpens(); n != wantOpens {
				t.Errorf("held section opened %d times, want %d", n, wantOpens)
			}
		})
	}
}
