package mr

import (
	"errors"
	"fmt"
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
// fetch), stage the bytes at the partition's staging node — in a bounded
// memory buffer with backpressure, overflowing to the staging node's disk
// when the budget is exhausted — and hand staged segments to reduce
// attempts. A segment travels and is staged exactly as it sits on the
// source disk: raw, or prefix-compressed when CompressRuns wrote it so. A
// segment that was never staged (fetch raced a node death, the copier lost
// to the reduce phase) is direct-fetched from the source disk, so staging
// never changes job output.

// stagingReserveWait bounds how long a copier waits for staging-buffer
// space before overflowing the segment to the staging node's disk. The
// wait is the backpressure; the overflow keeps copiers from deadlocking
// against reducers that have not started consuming yet.
const stagingReserveWait = 2 * time.Millisecond

// copiersPerPartition is the copier fan-out of one reduce partition, and
// the fetch fan-out of one reduce attempt. Measured, not tuned per job: at
// 64 simulated nodes one copier is slower (median 12.9 s against 10.4 s),
// and at 4 nodes 1, 2 and 4 are indistinguishable.
const copiersPerPartition = 4

// stagingBuffer bounds the memory held by staged shuffle segments.
// Copiers reserve space before keeping fetched bytes in memory and
// release it when the partition is done; close wakes every waiter.
type stagingBuffer struct {
	mu     sync.Mutex
	cond   *sync.Cond
	budget int64
	used   int64
	peak   int64
	closed bool
}

func newStagingBuffer(budget int64) *stagingBuffer {
	b := &stagingBuffer{budget: budget}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// reserve claims n bytes of staging budget, waiting up to maxWait for
// space (maxWait < 0 waits indefinitely, 0 never waits). ok is false when
// n exceeds the whole budget, the buffer is closed, or the wait expires
// first; waited is the time spent blocked for space either way, which the
// caller attributes to backpressure (granted) or stall (expired).
func (b *stagingBuffer) reserve(n int64, maxWait time.Duration) (ok bool, waited time.Duration) {
	if n > b.budget {
		return false, 0
	}
	expired := false
	var timer *time.Timer
	var waitStart time.Time
	b.mu.Lock()
	defer b.mu.Unlock()
	defer func() {
		if !waitStart.IsZero() {
			waited = time.Since(waitStart)
		}
	}()
	for !b.closed && b.used+n > b.budget {
		if maxWait == 0 {
			return false, 0
		}
		if waitStart.IsZero() {
			waitStart = time.Now()
		}
		if maxWait > 0 && timer == nil {
			timer = time.AfterFunc(maxWait, func() {
				b.mu.Lock()
				expired = true
				b.mu.Unlock()
				b.cond.Broadcast()
			})
			defer timer.Stop()
		}
		if expired {
			return false, 0
		}
		b.cond.Wait()
	}
	if b.closed {
		return false, 0
	}
	b.used += n
	if b.used > b.peak {
		b.peak = b.used
	}
	return true, 0
}

// release returns n reserved bytes to the budget.
func (b *stagingBuffer) release(n int64) {
	if n == 0 {
		return
	}
	b.mu.Lock()
	b.used -= n
	b.cond.Broadcast()
	b.mu.Unlock()
}

// close fails all pending and future reservations.
func (b *stagingBuffer) close() {
	b.mu.Lock()
	b.closed = true
	b.cond.Broadcast()
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

// stagedSeg is one fetched segment parked at its partition's staging home:
// raw bytes in memory inside the budget, or a file on the home disk.
type stagedSeg struct {
	data       []byte // in-memory copy (nil for an empty segment) when file == ""
	file       string // staging file on the home node's disk when overflowed
	len        int64
	compressed bool
}

// shuffleService runs the job-wide copier pools.
type shuffleService struct {
	c      *cluster.Cluster
	tr     *trace.Tracer
	prefix string
	buf    *stagingBuffer
	// tm is the service's own metrics. Staging work belongs to the job,
	// not to any single attempt — an attempt's report is discarded when it
	// fails or loses a commit race, which would silently drop counts — so
	// the runner merges this snapshot into the job aggregate exactly once.
	tm *metrics.TaskMetrics
	// hists is the owning job's histogram set (per-job under a service,
	// registry-backed for one-shot runs).
	hists   *Hists
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
		prefix:   job.filePrefix,
		buf:      newStagingBuffer(job.ShuffleBufferBytes),
		tm:       metrics.NewTaskMetrics(),
		hists:    job.Hists,
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
// source skips it; a rare duplicate racing an in-flight copier is
// discarded at staging time.
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
// partition's staging home: one read of the bytes as they sit on the
// source disk, one fabric transfer. Staging is best-effort: any failure
// abandons the segment and the reduce attempt direct-fetches it instead.
func (s *shuffleService) stageSegment(part, ci int, req stageReq) {
	if part < 0 || part >= len(req.out.index.Segments) {
		return
	}
	home := s.home(part)
	copierSlot := s.c.ReduceSlots() + ci
	span := s.tr.StartAttempt(trace.KindShuffleCopy, trace.LaneReduce, home, req.src, copierSlot, part)
	data, err := kvio.ReadSegment(s.c.Disks[req.out.node], req.out.index, part)
	if err != nil {
		span.End()
		return
	}
	if len(data) > 0 && req.out.node != home {
		t0 := time.Now()
		err := s.c.Net.Transfer(req.out.node, home, int64(len(data)))
		d := time.Since(t0)
		s.tm.Inc(metrics.CtrShuffleFabricWaitNS, int64(d))
		s.tr.Complete(trace.KindWaitFabric, trace.LaneReduce, home, req.src, copierSlot, t0, d)
		if err != nil {
			span.End()
			return
		}
	}
	if !s.park(part, home, copierSlot, req.src, data, req.out.index.Compressed) {
		span.End()
		return
	}
	span.EndCounts(req.out.index.Segments[part].Records, int64(len(data)))
}

// park keeps one fetched segment at the staging home: in the memory
// budget when a reservation lands, otherwise spilled to the home disk.
// Reports whether the segment ended up staged.
func (s *shuffleService) park(part, home, copierSlot, src int, data []byte, compressed bool) bool {
	st := &stagedSeg{len: int64(len(data)), compressed: compressed}
	reserveStart := time.Now()
	ok, waited := s.buf.reserve(st.len, stagingReserveWait)
	if waited > 0 {
		s.tm.Inc(metrics.CtrShuffleStagingWaitNS, int64(waited))
		s.tr.Complete(trace.KindWaitStaging, trace.LaneReduce, home, src, copierSlot, reserveStart, waited)
	}
	if ok {
		if waited > 0 {
			s.hists.StagingWait.Record(int64(waited))
		}
		st.data = data
	} else {
		if waited > 0 {
			s.hists.Stall.Record(int64(waited))
		}
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			// The job is over and the buffer refused because it is shut,
			// not full: nobody will take the segment, and writing it out
			// would count an overflow that did not happen.
			return false
		}
		name := stagedSegName(s.prefix, part, src)
		if err := s.writeStaged(home, name, data); err != nil {
			return false
		}
		st.file = name
		s.tm.Inc(metrics.CtrShuffleStagedSpills, 1)
	}
	s.mu.Lock()
	if s.closed || s.released[part] || s.staged[part][src] != nil {
		s.mu.Unlock()
		s.discardStaged(home, st)
		return false
	}
	s.staged[part][src] = st
	s.mu.Unlock()
	s.tm.Inc(metrics.CtrShuffleStagedSegments, 1)
	s.tm.Inc(metrics.CtrShuffleStagedBytes, st.len)
	if !s.mapDone.Load() {
		s.tm.Inc(metrics.CtrShuffleEarlySegments, 1)
	}
	return true
}

// stagedSegName names partition part's staged copy of map task src's
// segment on the staging node's disk.
func stagedSegName(prefix string, part, src int) string {
	return fmt.Sprintf("%s.stage-p%05d-m%05d", prefix, part, src)
}

// writeStaged persists an overflowed segment on the home node's disk.
func (s *shuffleService) writeStaged(home int, name string, raw []byte) error {
	w, err := s.c.Disks[home].Create(name)
	if err != nil {
		return err
	}
	if _, err := w.Write(raw); err != nil {
		return errors.Join(err, w.Close())
	}
	return w.Close()
}

// discardStaged frees one staged segment's budget or disk file. Cleanup
// is best-effort; failures on live nodes count as cleanup errors.
func (s *shuffleService) discardStaged(home int, st *stagedSeg) {
	if st.file == "" {
		s.buf.release(st.len)
		return
	}
	if s.c.NodeDead(home) {
		return
	}
	if err := s.c.Disks[home].Remove(st.file); err != nil {
		s.tm.Inc(metrics.CtrCleanupErrors, 1)
	}
}

// take hands a staged segment's records to a reduce attempt running on
// node, charging the home→node fabric hop (free when the scheduler placed
// the attempt on the staging node). The staged copy is not consumed —
// duplicate attempts of one partition may each take the same segment.
// ok=false means the segment is not staged or its staging node died; the
// caller direct-fetches from the source. The fabric hop is recorded as a
// wait-fabric span at sp's coordinates — the reduce attempt doing the
// take — so the critical-path analyzer can separate fabric time from
// shuffle I/O inside the attempt's fetch.
func (s *shuffleService) take(part, src, node int, sp spanner) (stream kvio.Stream, rawLen int64, ok bool) {
	s.mu.Lock()
	var st *stagedSeg
	if !s.released[part] && s.staged[part] != nil {
		st = s.staged[part][src]
	}
	s.mu.Unlock()
	if st == nil {
		return nil, 0, false
	}
	home := s.home(part)
	transfer := func() error {
		t0 := time.Now()
		err := s.c.Net.Transfer(home, node, st.len)
		d := time.Since(t0)
		s.tm.Inc(metrics.CtrShuffleFabricWaitNS, int64(d))
		sp.tr.Complete(trace.KindWaitFabric, trace.LaneReduce, sp.node, sp.task, sp.slot, t0, d)
		return err
	}
	if st.file == "" {
		if err := transfer(); err != nil {
			return nil, 0, false
		}
		s.tm.Inc(metrics.CtrShuffleStagedHits, 1)
		return kvio.NewBytesSegmentStream(st.data, st.compressed), st.len, true
	}
	rc, err := s.c.Disks[home].OpenSection(st.file, 0, st.len)
	if err != nil {
		return nil, 0, false
	}
	if err := transfer(); err != nil {
		if cerr := rc.Close(); cerr != nil {
			s.tm.Inc(metrics.CtrCleanupErrors, 1)
		}
		return nil, 0, false
	}
	s.tm.Inc(metrics.CtrShuffleStagedHits, 1)
	return kvio.NewSegmentStream(rc, st.len, st.compressed), st.len, true
}

// release drops a committed partition's staging state and stops its
// copiers.
func (s *shuffleService) release(part int) {
	home := s.home(part)
	s.mu.Lock()
	if s.released[part] {
		s.mu.Unlock()
		return
	}
	s.released[part] = true
	segs := s.staged[part]
	s.staged[part] = nil
	s.pend[part] = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, st := range segs {
		s.discardStaged(home, st)
	}
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
	s.buf.close()
	s.wg.Wait()
	s.mu.Lock()
	rem := make(map[int][]*stagedSeg)
	for p := range s.staged {
		for _, st := range s.staged[p] {
			rem[p] = append(rem[p], st)
		}
		s.staged[p] = nil
	}
	s.mu.Unlock()
	for p, segs := range rem {
		for _, st := range segs {
			s.discardStaged(s.home(p), st)
		}
	}
	s.tm.Inc(metrics.CtrShuffleStagingPeak, s.buf.peakBytes())
}

// snapshot returns the service's accumulated counters for the one-time
// merge into the job aggregate. Call only after close.
func (s *shuffleService) snapshot() metrics.Snapshot {
	return s.tm.Snapshot()
}
