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

// This file is the pipelined shuffle. A job-wide pool of copier
// goroutines stages each spill run as soon as its map attempt has written
// it, while the map phase is still running (early fetch): a copier reads
// the run with one open and ships its partition segments to their
// partitions' staging nodes, one transfer per node, which keep the bytes
// inside a bounded memory budget and hand them to reduce attempts. A
// reduce attempt asks only for the runs of committed map outputs; the runs
// of an attempt that never commits are withdrawn when it is swept. A
// segment travels and is staged exactly as it sits on the source disk:
// raw, or prefix-compressed when CompressRuns wrote it so. A segment that
// was not staged (the budget was full, the read raced a node death) stays
// on the source disk and the reduce attempt direct-fetches it, so staging
// never changes job output. A segment is read from its source once: a
// reduce attempt that needs one admitted to staging waits for its copy.

// copiersPerPartition is the fetch fan-out of one reduce attempt, and the
// copier pool has as many copiers per node. Measured, not tuned per job:
// at 64 simulated nodes one copier per partition was slower (median 12.9 s
// against 10.4 s), and at 4 nodes 1, 2 and 4 were indistinguishable.
const copiersPerPartition = 4

// stageReq asks the copiers to stage the admitted segments of one map
// output, ordered by run and then by partition.
type stageReq struct {
	src  int // source map task index
	out  mapOutput
	segs []stageSeg
}

// stageSeg is one admitted segment of a stage request: partition part of
// the output's run run, and its staging entry.
type stageSeg struct {
	run, part int
	st        *stagedSeg
}

// stagedSeg is one segment entered for staging at its partition's home:
// in flight while a copier reads and ships it, then held in memory as it
// lay on the source disk.
type stagedSeg struct {
	data       []byte
	compressed bool
	inFlight   bool
}

// shuffleService runs the job-wide copier pool.
type shuffleService struct {
	c  *cluster.Cluster
	tr *trace.Tracer
	// tm is the job's own metrics. Staging work, and the fetch and queue
	// latencies of every reduce attempt, belong to the job, not to any
	// single attempt — an attempt's report is discarded when it fails or
	// loses a commit race, which would silently drop counts — so the
	// runner merges this snapshot into the job aggregate exactly once.
	tm      *metrics.TaskMetrics
	mapDone atomic.Bool

	mu       sync.Mutex
	cond     *sync.Cond
	closed   bool
	pend     []stageReq              // map outputs waiting for a copier
	staged   []map[string]*stagedSeg // per-partition staged segments by run name
	released []bool                  // partition committed; staging dropped
	// budget is the staging byte budget. A segment's length is reserved
	// into used before a copier reads it, and a reservation that would
	// exceed the budget is refused at once, leaving the segment on its
	// source disk; peak is used's high-water mark.
	budget, used, peak int64
	wg                 sync.WaitGroup
}

func newShuffleService(c *cluster.Cluster, job *Job) *shuffleService {
	parts := job.NumReducers
	s := &shuffleService{
		c:        c,
		tr:       job.Trace,
		budget:   job.stagingBytes,
		tm:       metrics.NewTaskMetrics(),
		staged:   make([]map[string]*stagedSeg, parts),
		released: make([]bool, parts),
	}
	s.cond = sync.NewCond(&s.mu)
	for p := range s.staged {
		s.staged[p] = make(map[string]*stagedSeg)
	}
	for ci := 0; ci < copiersPerPartition*c.Nodes(); ci++ {
		s.wg.Add(1)
		go s.copierLoop(ci)
	}
	return s
}

// home is the staging node for a partition. The reduce scheduler prefers
// placing the partition's reduce attempts on the same node, making the
// staged hand-off a free local read in the common case.
func (s *shuffleService) home(part int) int {
	return part % s.c.Nodes()
}

// offer admits a map output's segments to staging and queues them for a
// copier. Called by a map attempt's support goroutine with each run it has
// written, before the attempt commits, lost-output recovery re-runs
// included: a re-run's runs are new files, staged under their own names.
// A nonempty segment of a partition not yet released reserves its on-disk
// length from the run index and is entered as in flight here, before a
// byte is read, so a reduce attempt that asks for it waits for its copy
// instead of reading the source again; a refused reservation leaves the
// segment on the source disk for the attempt's direct fetch.
func (s *shuffleService) offer(src int, out mapOutput) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	req := stageReq{src: src, out: out}
	for r, run := range out.runs {
		for p := 0; p < min(len(run.Segments), len(s.staged)); p++ {
			n := run.Segments[p].Len
			if n == 0 || s.released[p] || s.used+n > s.budget {
				continue
			}
			s.used += n
			s.peak = max(s.peak, s.used)
			st := &stagedSeg{compressed: run.Compressed, inFlight: true}
			s.staged[p][run.Name] = st
			req.segs = append(req.segs, stageSeg{run: r, part: p, st: st})
		}
	}
	if len(req.segs) > 0 {
		s.pend = append(s.pend, req)
		s.cond.Broadcast()
	}
}

// copierLoop is one copier of the pool: it stages queued map outputs one
// at a time until the service closes.
func (s *shuffleService) copierLoop(ci int) {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for !s.closed && len(s.pend) == 0 {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		req := s.pend[0]
		s.pend = s.pend[1:]
		s.mu.Unlock()
		s.stageOutput(ci, req)
	}
}

// stageOutput copies a request's segments to their partitions' staging
// homes: one read of each run's admitted segments (kvio.ReadRun, one open
// of the run), then one fabric transfer per home of all the output's
// bytes staged there. Staging is best-effort: a failed read abandons the
// whole request, a failed transfer the segments bound for that home, and
// a partition released or a service closed meanwhile its segments; each
// abandoned entry is removed, the attempts waiting on it are woken and
// its reservation is given back, leaving the segment to the direct fetch.
func (s *shuffleService) stageOutput(ci int, req stageReq) {
	copierSlot := s.c.ReduceSlots() + ci
	spans := make([]trace.Span, len(req.segs))
	byHome := make([][]int, s.c.Nodes())
	for i, g := range req.segs {
		h := s.home(g.part)
		spans[i] = s.tr.StartAttempt(trace.KindShuffleCopy, trace.LaneReduce, h, req.src, copierSlot, g.part)
		byHome[h] = append(byHome[h], i)
	}
	data := make([][]byte, len(req.segs))
	var err error
	for i := 0; i < len(req.segs) && err == nil; {
		j, parts := i, []int(nil)
		for ; j < len(req.segs) && req.segs[j].run == req.segs[i].run; j++ {
			parts = append(parts, req.segs[j].part)
		}
		var got [][]byte
		got, err = kvio.ReadRun(s.c.Disks[req.out.node], req.out.runs[req.segs[i].run], parts)
		copy(data[i:j], got)
		i = j
	}
	for h, idx := range byHome {
		var n int64
		for _, i := range idx {
			n += int64(len(data[i]))
		}
		xerr := err
		if xerr == nil && n > 0 && h != req.out.node {
			xerr = s.hop(req.out.node, h, n, spanner{tr: s.tr, node: h, task: req.src, slot: copierSlot})
		}
		s.land(req, idx, data, xerr, spans)
	}
}

// land ends the copies of the request's segments idx, bound for one home:
// with err nil, the service open and the entry still the one staged under
// its run's name (neither its partition released nor its run withdrawn),
// each entry takes its bytes; any other is removed and its reservation
// given back. Either way the entries leave flight and the attempts waiting
// on them are woken.
func (s *shuffleService) land(req stageReq, idx []int, data [][]byte, err error, spans []trace.Span) {
	kept := make([]bool, len(idx))
	s.mu.Lock()
	for k, i := range idx {
		g := req.segs[i]
		run := req.out.runs[g.run]
		if kept[k] = err == nil && !s.closed && s.staged[g.part][run.Name] == g.st; kept[k] {
			g.st.data = data[i]
		} else {
			delete(s.staged[g.part], run.Name) // a no-op once released or withdrawn
			s.used -= run.Segments[g.part].Len
		}
		g.st.inFlight = false
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	for k, i := range idx {
		g := req.segs[i]
		seg := req.out.runs[g.run].Segments[g.part]
		if !kept[k] {
			spans[i].End()
			continue
		}
		s.tm.Inc(metrics.CtrShuffleStagedSegments, 1)
		s.tm.Inc(metrics.CtrShuffleStagedBytes, seg.Len)
		if !s.mapDone.Load() {
			s.tm.Inc(metrics.CtrShuffleEarlySegments, 1)
		}
		spans[i].EndCounts(seg.Records, seg.Len)
	}
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
func (s *shuffleService) take(part int, run string, node int, sp spanner) (stream kvio.Stream, ok bool) {
	s.mu.Lock()
	st := s.staged[part][run] // nil once the partition is released
	for st != nil && st.inFlight {
		s.cond.Wait()
		st = s.staged[part][run]
	}
	s.mu.Unlock()
	if st == nil {
		return nil, false
	}
	if err := s.hop(s.home(part), node, int64(len(st.data)), sp); err != nil {
		return nil, false
	}
	s.tm.Inc(metrics.CtrShuffleStagedHits, 1)
	return kvio.NewBytesSegmentStream(st.data, st.compressed), true
}

// hop charges one fabric transfer of n bytes from src to dst on the
// shuffle path, recorded as a wait-fabric span at sp's coordinates and in
// the job's fabric wait.
func (s *shuffleService) hop(src, dst int, n int64, sp spanner) error {
	t0 := time.Now()
	err := s.c.Net.Transfer(src, dst, n)
	d := time.Since(t0)
	s.tm.Inc(metrics.CtrShuffleFabricWaitNS, int64(d))
	sp.tr.Complete(trace.KindWaitFabric, trace.LaneReduce, sp.node, sp.task, sp.slot, t0, d)
	return err
}

// release drops a committed partition's staged segments: the copiers
// keep nothing more for it. Idempotent.
func (s *shuffleService) release(part int) {
	s.mu.Lock()
	if !s.released[part] {
		s.released[part] = true
		s.dropStagedLocked(part)
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// withdraw takes the named runs, of an attempt that will never commit, out
// of staging: a landed segment gives its bytes back to the budget here, a
// queued or in-flight one its reservation when its copy lands.
func (s *shuffleService) withdraw(names []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, staged := range s.staged {
		for _, name := range names {
			if st := staged[name]; st != nil && !st.inFlight {
				s.used -= int64(len(st.data))
			}
			delete(staged, name)
		}
	}
}

// dropStagedLocked gives partition part's staged bytes back to the budget.
// An entry still in flight holds no data yet; its copier, or close for a
// request no copier took, gives its reservation back.
func (s *shuffleService) dropStagedLocked(part int) {
	var n int64
	for _, st := range s.staged[part] {
		n += int64(len(st.data))
	}
	s.used -= n
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
	for _, req := range s.pend {
		for _, g := range req.segs {
			s.used -= req.out.runs[g.run].Segments[g.part].Len
		}
	}
	s.pend = nil
	for part := range s.staged {
		s.dropStagedLocked(part)
	}
	debugAssert(s.used == 0, "staging holds %d bytes after close", s.used)
	s.tm.Inc(metrics.CtrShuffleStagingPeak, s.peak)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// snapshot returns the job's own counters and histograms for the one-time
// merge into the job aggregate. Call only after close.
func (s *shuffleService) snapshot() metrics.Snapshot {
	return s.tm.Snapshot()
}
