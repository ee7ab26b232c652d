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
	"mrtext/internal/trace"
	"mrtext/internal/vdisk"
)

// --- staging budget ---

// TestStagingBufferBackpressure pins the budget contract on a service with
// no copiers: an offered segment inside the budget is admitted, one that
// would exceed it is refused at once — there is no wait — and admitted
// after an abandoned copy gave its reservation back; the peak is the
// high-water mark of what was admitted.
func TestStagingBufferBackpressure(t *testing.T) {
	s := &shuffleService{budget: 100, tm: metrics.NewTaskMetrics(), staged: []map[string]*stagedSeg{{}}, released: make([]bool, 1)}
	s.cond = sync.NewCond(&s.mu)
	admit := func(name string, n int64) bool {
		s.offer(0, mapOutput{runs: []kvio.RunIndex{{Name: name, Segments: []kvio.Segment{{Len: n}}}}})
		return s.staged[0][name] != nil
	}
	if !admit("a", 60) {
		t.Fatal("in-budget segment refused")
	}
	if admit("b", 50) {
		t.Fatal("over-budget segment admitted")
	}
	if admit("c", 101) {
		t.Fatal("segment larger than the whole budget admitted")
	}
	// The copy of "a" fails: its reservation comes back.
	s.land(s.pend[0], []int{0}, [][]byte{nil}, errors.New("copy failed"), make([]trace.Span, 1))
	if !admit("b", 50) {
		t.Fatal("segment refused after an abandoned copy gave its bytes back")
	}
	if !admit("d", 50) {
		t.Fatal("segment filling the budget exactly refused")
	}
	if admit("e", 1) {
		t.Fatal("segment admitted with the budget exhausted")
	}
	if got := bufPeak(s); got != 100 {
		t.Fatalf("peak = %d, want 100", got)
	}
}

// --- shuffleService ---

const (
	unitParts = 4
	unitMaps  = 3
	unitRuns  = 2 // spill runs per map output
	// unitSegs is the nonempty segments on offer: partition 2 of every run
	// is empty.
	unitSegs = unitMaps * unitRuns * (unitParts - 1)
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

// writeUnitMapOuts writes unitMaps committed map outputs of unitRuns runs
// each across the cluster's disks and returns their locations. Partition p
// of run r of map task m holds keys "k<p>-<i>" in sorted order, every
// other one of them in each run, except partition 2 of every run, which is
// left empty. compressed selects the on-disk format CompressRuns writes.
func writeUnitMapOuts(t *testing.T, c *cluster.Cluster, compressed bool) []mapOutput {
	t.Helper()
	outs := make([]mapOutput, unitMaps)
	for m := 0; m < unitMaps; m++ {
		outs[m].node = m % c.Nodes()
		for r := 0; r < unitRuns; r++ {
			sink, err := kvio.NewRunSink(c.Disks[outs[m].node], fmt.Sprintf("unit-m%d-r%d", m, r), unitParts, compressed)
			if err != nil {
				t.Fatalf("sink: %v", err)
			}
			for p := 0; p < unitParts; p++ {
				if p == 2 {
					continue
				}
				for i := r; i < 50; i += unitRuns {
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
			outs[m].runs = append(outs[m].runs, idx)
		}
	}
	return outs
}

// outsBytes sums the on-disk bytes of the outputs' runs.
func outsBytes(outs []mapOutput) int64 {
	var n int64
	for _, out := range outs {
		for _, run := range out.runs {
			n += run.TotalBytes()
		}
	}
	return n
}

// wantStreams reads partition part of every run of outs from disks by
// direct positioned reads, in the order a reduce attempt's fetch returns
// the streams: by map task, then by run, skipping empty segments. It also
// returns the name of each stream's run.
func wantStreams(t *testing.T, disks []vdisk.Disk, outs []mapOutput, part int) (recs [][][2]string, runs []string) {
	t.Helper()
	for _, out := range outs {
		for _, run := range out.runs {
			if run.Segments[part].Len == 0 {
				continue
			}
			s, err := kvio.OpenRunPart(disks[out.node], run, part)
			if err != nil {
				t.Fatalf("direct open: %v", err)
			}
			recs, runs = append(recs, drainStream(t, s)), append(runs, run.Name)
		}
	}
	return recs, runs
}

// unitShuffleJob is the minimal job configuration the service reads.
func unitShuffleJob(bufferBytes int64) *Job {
	return &Job{
		NumReducers:  unitParts,
		stagingBytes: bufferBytes,
		filePrefix:   "unit",
		cancel:       new(atomic.Bool),
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
// copier pool, in both on-disk formats, and checks that every nonempty
// segment of every run is staged in the format it was written in, and no
// empty one, that it decodes through take to exactly the records of a
// direct positioned read, and that takes are non-destructive (a duplicate
// attempt can re-take).
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
			waitStagedSegments(t, svc, unitSegs)

			for p := 0; p < unitParts; p++ {
				svc.mu.Lock()
				n := len(svc.staged[p])
				svc.mu.Unlock()
				if want := unitMaps * unitRuns; p == 2 && n != 0 || p != 2 && n != want {
					t.Fatalf("part %d: %d segments staged", p, n)
				}
				want, runs := wantStreams(t, c.Disks, outs, p)
				for i, run := range runs {
					svc.mu.Lock()
					st := svc.staged[p][run]
					svc.mu.Unlock()
					if st.compressed != compressed {
						t.Fatalf("part %d run %s staged with compressed = %v, written with %v", p, run, st.compressed, compressed)
					}
					for round := 0; round < 2; round++ { // takes must not consume
						st, ok := svc.take(p, run, 0, spanner{})
						if !ok {
							t.Fatalf("part %d run %s round %d: staged segment missing", p, run, round)
						}
						if got := drainStream(t, st); !slices.Equal(got, want[i]) {
							t.Fatalf("part %d run %s: staged %q, direct %q", p, run, got, want[i])
						}
					}
				}
			}

			// A released partition stops serving takes.
			svc.release(1)
			if _, ok := svc.take(1, outs[0].runs[0].Name, 0, spanner{}); ok {
				t.Fatal("released partition still serves staged segments")
			}
		})
	}
}

// TestStagingAccountsWireBytes pins staging's byte accounting: a segment
// crosses the fabric and is staged as it sits on the source disk, so the
// staged bytes equal the segments' on-disk bytes, and a budget equal to
// that total stages every segment, with one fabric transfer per map output
// and staging home.
func TestStagingAccountsWireBytes(t *testing.T) {
	c := newUnitCluster(t, nil)
	outs := writeUnitMapOuts(t, c, false)
	diskTotal := outsBytes(outs)

	svc := newShuffleService(c, unitShuffleJob(diskTotal))
	defer svc.close()
	for m, out := range outs {
		svc.offer(m, out)
	}
	waitStagedSegments(t, svc, unitSegs)
	if staged := svc.tm.Counter(metrics.CtrShuffleStagedBytes); staged != diskTotal {
		t.Fatalf("staged %d bytes, the segments hold %d on disk", staged, diskTotal)
	}
	if peak := bufPeak(svc); peak != diskTotal {
		t.Fatalf("staging peak %d, want the on-disk total %d", peak, diskTotal)
	}
	// Each output's segments bound for the other node cross the fabric in
	// one transfer, however many runs and partitions they come from.
	if n := c.Net.Stats().Transfers; n != unitMaps {
		t.Errorf("%d fabric transfers staged %d outputs of %d runs over 2 nodes, want one per output", n, unitMaps, unitRuns)
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
	want, _ := wantStreams(t, c.Disks, outs, part)
	if len(streams) != len(want) {
		t.Fatalf("%d streams, want one per run: %d", len(streams), len(want))
	}
	for i, st := range streams {
		if got := drainStream(t, st); !slices.Equal(got, want[i]) {
			t.Fatalf("stream %d: %q, want %q", i, got, want[i])
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
		queued, held := len(svc.pend), int64(0)
		for p := range svc.staged {
			for _, st := range svc.staged[p] {
				held += int64(len(st.data))
			}
		}
		inFlight := svc.used - held
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
// a reduce attempt's fetch resolves every nonempty segment of every run
// exactly once, from staging or by direct fetch, the two add up to the
// nonempty segments, and either way the records are the ones on the source
// disk and the attempt counts the segment's on-disk length.
func TestOverBudgetSegmentsAreDirectFetched(t *testing.T) {
	c := newUnitCluster(t, nil)
	outs := writeUnitMapOuts(t, c, false)
	diskTotal := outsBytes(outs)
	budget := diskTotal / 3
	job := unitShuffleJob(budget)
	svc := newShuffleService(c, job)
	defer svc.close()
	for m, out := range outs {
		svc.offer(m, out)
	}
	waitCopiersIdle(t, svc)

	sh := &shuffleEnv{svc: svc}
	var shuffled int64
	for p := 0; p < unitParts; p++ {
		acct := &reduceAccount{tm: metrics.NewTaskMetrics()}
		streams, err := fetchConcurrent(c, job, sh, p, 0, nil, outs, acct, spanner{})
		if err != nil {
			t.Fatalf("part %d: fetch: %v", p, err)
		}
		want, _ := wantStreams(t, c.Disks, outs, p)
		if len(streams) != len(want) {
			t.Fatalf("part %d: %d streams, want %d", p, len(streams), len(want))
		}
		for i, st := range streams {
			if got := drainStream(t, st); !slices.Equal(got, want[i]) {
				t.Fatalf("part %d stream %d: fetched %d records, the source disk holds %d", p, i, len(got), len(want[i]))
			}
		}
		shuffled += acct.tm.Counter(metrics.CtrShuffleBytes)
	}
	staged := svc.tm.Counter(metrics.CtrShuffleStagedHits)
	direct := svc.tm.Counter(metrics.CtrShuffleDirectFetches)
	if staged+direct != unitSegs {
		t.Errorf("%d staged hits + %d direct fetches, want %d", staged, direct, unitSegs)
	}
	if shuffled != diskTotal {
		t.Errorf("counted %d shuffle bytes, the segments hold %d on disk", shuffled, diskTotal)
	}
	if stagedBytes := svc.tm.Counter(metrics.CtrShuffleStagedBytes); stagedBytes == 0 || stagedBytes > budget {
		t.Errorf("staged %d bytes under a budget of %d", stagedBytes, budget)
	}
	if direct == 0 {
		t.Errorf("no direct fetch with %d bytes on offer to a budget of %d", diskTotal, budget)
	}
	if peak := bufPeak(svc); peak > budget {
		t.Errorf("staging peak %d over the budget %d", peak, budget)
	}
}

// TestReserveBeforeRead: a segment's length is reserved from the run index
// when its map output is offered, before any disk is touched, so a refused
// segment costs no disk operation — with a one-byte budget no disk sees an
// open and nothing is staged — and a copy that reserved and then failed to
// read or to transfer gives the bytes back, as does an offer the service
// refuses once closed.
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
		if n := svc.tm.Counter(metrics.CtrShuffleStagedSegments); n != 0 {
			t.Errorf("%d segments staged under a one-byte budget", n)
		}
	})

	failures := []struct {
		name  string
		rig   func(c *cluster.Cluster, outs []mapOutput)
		close bool // close the service before the copy instead of after
	}{
		{"read fails", func(_ *cluster.Cluster, outs []mapOutput) {
			for m := range outs {
				for r := range outs[m].runs {
					outs[m].runs[r].Name = "no-such-run"
				}
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
			// Map task 0's runs are on node 0; partitions 1 and 3 are staged
			// on node 1, across the fabric, and partition 0 on node 0. With
			// the transfer failing, only the runs' partition-0 segments are
			// staged.
			svc.offer(0, outs[0])
			waitCopiersIdle(t, svc)
			var wantSegs, wantBytes int64
			if tc.name == "transfer fails" {
				for _, run := range outs[0].runs {
					wantSegs, wantBytes = wantSegs+1, wantBytes+run.Segments[0].Len
				}
			}
			svc.mu.Lock()
			st := svc.staged[1][outs[0].runs[0].Name]
			svc.mu.Unlock()
			if st != nil {
				t.Error("segment staged although its copy failed")
			}
			if n := svc.tm.Counter(metrics.CtrShuffleStagedSegments); n != wantSegs {
				t.Errorf("%d segments counted as staged, want %d", n, wantSegs)
			}
			if used := bufUsed(svc); used != wantBytes {
				t.Errorf("%d bytes reserved after the failed copy, want the %d staged", used, wantBytes)
			}
			svc.close()
		})
	}
}

// holdDisk wraps a node disk: it counts the opens of every section and
// holds the first open of a section hold matches until the test lets it go
// — on (*hold).release's value, nil to proceed or an error to fail the
// open with. Sections are named name@offset: a copier's read of a run is
// the section at its first staged segment, a direct fetch the section at
// its partition's segment.
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

// section names the section of run starting at partition part's segment
// as holdDisk counts it.
func section(run kvio.RunIndex, part int) string {
	return fmt.Sprintf("%s@%d", run.Name, run.Segments[part].Off)
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
	svc.mu.Lock()
	defer svc.mu.Unlock()
	return svc.used
}

// bufPeak reads the staging budget's high-water mark.
func bufPeak(svc *shuffleService) int64 {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	return svc.peak
}

// TestTakeWaitsForInFlightCopy holds one copier's read of a map output's
// first run. A reduce attempt that needs one of the output's segments
// meanwhile waits for that copy instead of reading the source again, so
// with the copy let go the source disk sees one open per run, the
// copier's; with the copy failed the copier abandons the whole output and
// the attempt direct-fetches its segments, and either way the attempt's
// records — and a whole job's output — are the source's. The staging
// budget ends at zero whether the copy lands, fails, or outlives its
// partition or its service.
func TestTakeWaitsForInFlightCopy(t *testing.T) {
	const part, src = 1, 0
	for _, fail := range []bool{false, true} {
		t.Run(fmt.Sprintf("copy-fails=%v", fail), func(t *testing.T) {
			c := newUnitCluster(t, nil)
			outs := writeUnitMapOuts(t, c, false)
			raw := slices.Clone(c.Disks)
			held := section(outs[src].runs[0], 0)
			h := newHold(func(s string) bool { return s == held })
			h.wrap(c)
			job := unitShuffleJob(1 << 20)
			svc := newShuffleService(c, job)
			// Every other output is staged; the held one stays in flight.
			for m, out := range outs {
				svc.offer(m, out)
			}
			h.awaitHeld(t)
			waitStagedSegments(t, svc, unitSegs-unitRuns*(unitParts-1))

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
				t.Fatalf("%d opens of the held run while its copy is in flight, want 1", n)
			}
			heldRuns := map[string]bool{}
			for _, run := range outs[src].runs {
				heldRuns[run.Name] = true
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
			want, runs := wantStreams(t, raw, outs, part)
			for i, st := range f.streams {
				if got := drainStream(t, st); !slices.Equal(got, want[i]) {
					t.Fatalf("run %s: fetched %d records, the source disk holds %d", runs[i], len(got), len(want[i]))
				}
			}
			for _, out := range outs {
				for r, run := range out.runs {
					wantCopy, wantDirect := 1, 0
					if fail && heldRuns[run.Name] {
						wantDirect = 1
						if r > 0 {
							wantCopy = 0 // the failed first read abandoned the output
						}
					}
					if n := h.count(section(run, 0)); n != wantCopy {
						t.Errorf("run %s read %d times by copiers, want %d", run.Name, n, wantCopy)
					}
					if n := h.count(section(run, part)); n != wantDirect {
						t.Errorf("run %s partition %d direct-fetched %d times, want %d", run.Name, part, n, wantDirect)
					}
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
			held := section(outs[src].runs[0], 0)
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

	// A whole job whose first copier read of a run is held: a reduce
	// attempt that needs the run waits for it, and the output is the
	// reference executor's whether the copy lands or fails.
	runRead := regexp.MustCompile(`/spill\d{4}@`)
	for _, fail := range []bool{false, true} {
		t.Run(fmt.Sprintf("job/copy-fails=%v", fail), func(t *testing.T) {
			c := buildFS(t, wordsInput(6000, 8, 2500), 128<<10)
			want, err := RunReference(c, wordSumSpec("in-flight-ref"))
			if err != nil {
				t.Fatal(err)
			}
			h := newHold(runRead.MatchString)
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
				wantOpens = 2 // the failed copy's open and a direct fetch's
			}
			if n := h.heldOpens(); n != wantOpens {
				t.Errorf("held section opened %d times, want %d", n, wantOpens)
			}
		})
	}
}
