package mr

import (
	"sync"
	"sync/atomic"
	"time"

	"mrtext/internal/cluster"
	"mrtext/internal/kvio"
	"mrtext/internal/metrics"
	"mrtext/internal/trace"
)

// This file is the pipelined shuffle. Each reduce partition gets a small
// pool of copier goroutines that fetch the partition's segments of
// committed map outputs while the map phase is still running (early
// fetch), keep the bytes at the partition's staging node inside a bounded
// memory budget, and hand staged segments to reduce attempts. A segment
// travels and is staged exactly as it sits on the source disk: raw, or
// prefix-compressed when CompressRuns wrote it so. A segment that was not
// staged (the budget was full, the fetch raced a node death, the copier
// lost to the reduce phase) stays on the source disk and the reduce attempt
// direct-fetches it, so staging never changes job output. A segment is read
// from its source once: a reduce attempt that needs one a copier is
// reading waits for that copy.

// copiersPerPartition is the copier fan-out of one reduce partition, and
// the fetch fan-out of one reduce attempt. Measured, not tuned per job: at
// 64 simulated nodes one copier is slower (median 12.9 s against 10.4 s),
// and at 4 nodes 1, 2 and 4 are indistinguishable.
const copiersPerPartition = 4

// stagingBuffer is the byte budget of staged shuffle segments. A copier
// reserves a segment's length before it reads the segment and never waits:
// a refused reservation leaves the segment on its source disk.
type stagingBuffer struct {
	mu     sync.Mutex
	budget int64
	used   int64
	peak   int64
}

// reserve claims n bytes of the budget, or reports that they do not fit.
func (b *stagingBuffer) reserve(n int64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.used+n > b.budget {
		return false
	}
	b.used += n
	b.peak = max(b.peak, b.used)
	return true
}

// release returns n reserved bytes to the budget.
func (b *stagingBuffer) release(n int64) {
	b.mu.Lock()
	b.used -= n
	b.mu.Unlock()
}

// peakBytes returns the buffer's occupancy high-water mark.
func (b *stagingBuffer) peakBytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.peak
}

// stageReq asks a partition's copiers to stage one committed map output's
// segment.
type stageReq struct {
	src int // source map task index
	out mapOutput
}

// stagedSeg is one segment entered for staging at its partition's home:
// in flight while a copier reads and ships it, then held in memory as it
// lay on the source disk (nil data for an empty segment).
type stagedSeg struct {
	data       []byte
	compressed bool
	inFlight   bool
}

// shuffleService runs the job-wide copier pools.
type shuffleService struct {
	c   *cluster.Cluster
	tr  *trace.Tracer
	buf *stagingBuffer
	// tm is the service's own metrics. Staging work belongs to the job,
	// not to any single attempt — an attempt's report is discarded when it
	// fails or loses a commit race, which would silently drop counts — so
	// the runner merges this snapshot into the job aggregate exactly once.
	tm      *metrics.TaskMetrics
	mapDone atomic.Bool

	mu       sync.Mutex
	cond     *sync.Cond
	closed   bool
	pend     [][]stageReq         // per-partition staging queue
	staged   []map[int]*stagedSeg // per-partition staged segments by map task
	released []bool               // partition committed; staging dropped
	wg       sync.WaitGroup
}

func newShuffleService(c *cluster.Cluster, job *Job) *shuffleService {
	parts := job.NumReducers
	s := &shuffleService{
		c:        c,
		tr:       job.Trace,
		buf:      &stagingBuffer{budget: job.ShuffleBufferBytes},
		tm:       metrics.NewTaskMetrics(),
		pend:     make([][]stageReq, parts),
		staged:   make([]map[int]*stagedSeg, parts),
		released: make([]bool, parts),
	}
	s.cond = sync.NewCond(&s.mu)
	for p := 0; p < parts; p++ {
		s.staged[p] = make(map[int]*stagedSeg)
		for ci := 0; ci < copiersPerPartition; ci++ {
			s.wg.Add(1)
			go s.copierLoop(p, ci)
		}
	}
	return s
}

// home is the staging node for a partition. The reduce scheduler prefers
// placing the partition's reduce attempts on the same node, making the
// staged hand-off a free local read in the common case.
func (s *shuffleService) home(part int) int {
	return part % s.c.Nodes()
}

// offer tells every partition's copier pool that a map task's output is
// committed at out. Called by the runner on each map commit (including
// lost-output recovery re-runs). A partition that already staged this
// source, or is copying it, skips it; a duplicate queued before the first
// copy began is dropped when its copier finds the entry.
func (s *shuffleService) offer(src int, out mapOutput) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	for part := range s.pend {
		if s.released[part] || s.staged[part][src] != nil {
			continue
		}
		s.pend[part] = append(s.pend[part], stageReq{src: src, out: out})
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// copierLoop is one copier of one partition's pool: it stages the
// partition's queued segments one at a time until the partition is
// released or the service closes.
func (s *shuffleService) copierLoop(part, ci int) {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for !s.closed && !s.released[part] && len(s.pend[part]) == 0 {
			s.cond.Wait()
		}
		if s.closed || s.released[part] {
			s.mu.Unlock()
			return
		}
		req := s.pend[part][0]
		s.pend[part] = s.pend[part][1:]
		s.mu.Unlock()
		s.stageSegment(part, ci, req)
	}
}

// stageSegment fetches one segment from its source node to the
// partition's staging home. It reserves the segment's on-disk length from
// the run index and enters the segment as in flight before it reads a
// byte; a refused reservation drops the request, and the segment stays on
// the source disk for the reduce attempt's direct fetch. Admitted, the
// segment costs one read of the bytes as they sit on the source disk and
// one fabric transfer. Staging is best-effort: any failure, or a partition
// released or a service closed meanwhile, removes the entry, wakes the
// attempts waiting on it and gives the reservation back, abandoning the
// segment to the same direct fetch.
func (s *shuffleService) stageSegment(part, ci int, req stageReq) {
	if part < 0 || part >= len(req.out.index.Segments) {
		return
	}
	seg := req.out.index.Segments[part]
	st := &stagedSeg{compressed: req.out.index.Compressed, inFlight: true}
	s.mu.Lock()
	admitted := !s.closed && !s.released[part] && s.staged[part][req.src] == nil && s.buf.reserve(seg.Len)
	if admitted {
		s.staged[part][req.src] = st
	}
	s.mu.Unlock()
	if !admitted {
		return
	}
	home := s.home(part)
	copierSlot := s.c.ReduceSlots() + ci
	span := s.tr.StartAttempt(trace.KindShuffleCopy, trace.LaneReduce, home, req.src, copierSlot, part)
	data, err := kvio.ReadSegment(s.c.Disks[req.out.node], req.out.index, part)
	if err == nil && seg.Len > 0 && req.out.node != home {
		t0 := time.Now()
		err = s.c.Net.Transfer(req.out.node, home, seg.Len)
		d := time.Since(t0)
		s.tm.Inc(metrics.CtrShuffleFabricWaitNS, int64(d))
		s.tr.Complete(trace.KindWaitFabric, trace.LaneReduce, home, req.src, copierSlot, t0, d)
	}
	s.mu.Lock()
	kept := err == nil && !s.closed && !s.released[part]
	if kept {
		st.data = data
	} else {
		delete(s.staged[part], req.src) // a no-op once release dropped the partition
	}
	st.inFlight = false
	s.cond.Broadcast()
	s.mu.Unlock()
	if !kept {
		s.buf.release(seg.Len)
		span.End()
		return
	}
	s.tm.Inc(metrics.CtrShuffleStagedSegments, 1)
	s.tm.Inc(metrics.CtrShuffleStagedBytes, seg.Len)
	if !s.mapDone.Load() {
		s.tm.Inc(metrics.CtrShuffleEarlySegments, 1)
	}
	span.EndCounts(seg.Records, seg.Len)
}

// take hands a staged segment's records to a reduce attempt running on
// node, charging the home→node fabric hop (free when the scheduler placed
// the attempt on the staging node). A segment a copier is still reading is
// waited for, not read a second time. The staged copy is not consumed —
// duplicate attempts of one partition may each take the same segment.
// ok=false means the segment is not staged (nor will be: the copy failed)
// or the hop failed; the caller direct-fetches from the source. The fabric
// hop is recorded as a wait-fabric span at sp's coordinates — the reduce
// attempt doing the take — so the critical-path analyzer can separate
// fabric time from shuffle I/O inside the attempt's fetch.
func (s *shuffleService) take(part, src, node int, sp spanner) (stream kvio.Stream, ok bool) {
	s.mu.Lock()
	st := s.staged[part][src] // nil once the partition is released
	for st != nil && st.inFlight {
		s.cond.Wait()
		st = s.staged[part][src]
	}
	s.mu.Unlock()
	if st == nil {
		return nil, false
	}
	t0 := time.Now()
	err := s.c.Net.Transfer(s.home(part), node, int64(len(st.data)))
	d := time.Since(t0)
	s.tm.Inc(metrics.CtrShuffleFabricWaitNS, int64(d))
	sp.tr.Complete(trace.KindWaitFabric, trace.LaneReduce, sp.node, sp.task, sp.slot, t0, d)
	if err != nil {
		return nil, false
	}
	s.tm.Inc(metrics.CtrShuffleStagedHits, 1)
	return kvio.NewBytesSegmentStream(st.data, st.compressed), true
}

// release drops a committed partition's staged segments and stops its
// copiers. Idempotent.
func (s *shuffleService) release(part int) {
	s.mu.Lock()
	if !s.released[part] {
		s.released[part] = true
		s.pend[part] = nil
		s.dropStagedLocked(part)
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// dropStagedLocked gives partition part's staged bytes back to the budget.
// An entry still in flight holds no data yet; its copier gives its
// reservation back when it finds the partition dropped.
func (s *shuffleService) dropStagedLocked(part int) {
	var n int64
	for _, st := range s.staged[part] {
		n += int64(len(st.data))
	}
	s.buf.release(n)
	s.staged[part] = nil
}

// markMapDone flips early-fetch accounting off: segments staged from here
// on no longer overlap the map phase.
func (s *shuffleService) markMapDone() {
	s.mapDone.Store(true)
}

// noteRetry counts one injected shuffle-fetch fault absorbed by a reduce
// attempt's per-source retry.
func (s *shuffleService) noteRetry() {
	s.tm.Inc(metrics.CtrShuffleFetchRetries, 1)
}

// close stops every copier, drops all remaining staging state, and
// records the staging high-water mark. Idempotent.
func (s *shuffleService) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	for part := range s.staged {
		s.dropStagedLocked(part)
	}
	s.mu.Unlock()
	s.tm.Inc(metrics.CtrShuffleStagingPeak, s.buf.peakBytes())
}

// snapshot returns the service's accumulated counters for the one-time
// merge into the job aggregate. Call only after close.
func (s *shuffleService) snapshot() metrics.Snapshot {
	return s.tm.Snapshot()
}
