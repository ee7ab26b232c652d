// Package spillbuf implements the map task's in-memory spill buffer: the
// shared structure between the map goroutine (which applies the user's
// map() and appends serialized records) and the support goroutine (which
// sorts, combines and spills them to local disk). It is the direct
// analogue of Hadoop's MapOutputBuffer + SpillThread pair that §II-C2 and
// §IV of the paper analyze.
//
// Semantics follow the paper's model exactly:
//
//   - The buffer has a fixed byte budget M. Appended records accumulate as
//     the "pending" region.
//   - A spill is handed to the consumer when the consumer is free and the
//     pending bytes have reached x·M, where x is the spill percentage
//     supplied by a spillmatch.Controller (static 0.8 in the baseline,
//     adaptive under the spill-matcher). The consumer receives *all*
//     pending records — so if it was busy while the threshold was crossed
//     the spill is larger, reproducing
//     m_i = max{xM, min{(p/c)m_{i−1}, M−m_{i−1}}}.
//   - No spill is smaller than x·M, except the last one of the input and
//     one that has to leave because the next record does not fit beside
//     it (the oversized-record escape hatch).
//   - The handed-off spill keeps occupying its bytes until the consumer
//     Releases it; the producer blocks when pending + in-flight bytes hit
//     M. Producer block time and consumer idle time are recorded as the
//     map/support idle times of Table II.
//
// One rule says who may touch the pending region: it belongs to the
// producer until it is handed off. Append therefore takes no lock. It
// reads three atomics — closed, the in-flight bytes, and whether the
// consumer is parked in NextSpill — and takes the mutex only to wait on a
// full buffer or to hand the region off, which the producer does itself,
// at the first Append that finds the threshold reached and the consumer
// parked. The consumer cuts a spill out of the pending region only when
// the producer provably is not appending: after Close, or while the
// producer is parked on a buffer that is still full for the record it
// waits to append. The buffer has exactly one producer and one consumer.
//
// Per spill the buffer measures the producer's active production time and
// the consumer's active consumption time and reports them to the
// controller — the T_p/T_c measurements the spill-matcher adapts on. The
// producer's time is kept per stretch, not per record: a stretch of
// production ends where the producer starts to wait, where the pending
// region is handed off, and at Close, so Append reads the clock only when
// it blocks or hands off.
//
// Records are stored packed, Hadoop kvbuffer/kvmeta-style, and filed by
// partition as they arrive: key and value bytes are appended into one
// arena and a compact kvio.Meta entry per record — arena location and
// cached key prefix — joins its partition's entries (kvio.Region). A spill
// hands the consumer the region directly — no per-record allocations, and
// no pass to group it by partition before the sort. A buffer borrows its
// two regions from a pair of slots (Regions) and puts each back there on
// Release and on every other way out; a map slot's pair outlives the
// task, so the slot's next task fills the regions its previous task grew
// instead of growing its own.
package spillbuf

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mrtext/internal/core/spillmatch"
	"mrtext/internal/kvio"
	"mrtext/internal/metrics"
	"mrtext/internal/trace"
)

// ErrClosed is returned by Append after Close or Abort.
var ErrClosed = errors.New("spillbuf: buffer is closed")

// recordOverhead approximates per-record bookkeeping bytes charged against
// the buffer budget (Hadoop charges 16 bytes of accounting per record in
// io.sort.record.percent space; we fold it into one number).
const recordOverhead = 16

// MaxCapacity bounds the buffer budget M. Arena offsets are 32-bit
// (kvio.Meta.KeyOff), exactly as Hadoop's kvbuffer caps io.sort.mb at
// 2047 MB for its int offsets; 2 GiB is far above any configuration the
// experiments use.
const MaxCapacity = 1 << 31

// maxArenaBytes is the hard ceiling on one pending region's arena: past
// this, 32-bit arena offsets would overflow. Reachable only through a
// single record of several GiB (the oversized-record escape hatch
// ignores M), which Append rejects explicitly.
const maxArenaBytes = math.MaxUint32

// Spill is one batch of records handed from the producer to the consumer.
type Spill struct {
	// Recs holds the spill's records filed by partition, each partition's
	// in emit order. The consumer owns it until Release, which recycles
	// the backing arrays.
	Recs kvio.Region
	// Bytes is the buffer-budget charge of the batch (payload bytes plus
	// per-record overhead).
	Bytes int64
	// Produce is the producer's active time (map() + emit, excluding
	// blocked time) spent generating this spill's records: the producer's
	// stretches between the previous hand-off and this one. It includes
	// the un-blocked nanoseconds spent inside Append itself, which are
	// emit work like the rest.
	Produce time.Duration
	// Seq numbers spills from 0.
	Seq int
}

// Buffer is the spill buffer. One producer goroutine (Append, Close) and
// one consumer goroutine (NextSpill, Release, Abort) use it concurrently.
type Buffer struct {
	capacity int64
	ctrl     spillmatch.Controller
	tm       *metrics.TaskMetrics
	now      func() time.Time // tm's clock, the wall clock without a tm

	// Trace identity: which (node, task, slot) the buffer's wait spans and
	// spill instants are attributed to. tr nil means tracing is off.
	tr     *trace.Tracer
	trNode int
	trTask int
	trSlot int

	// The producer's input, when attached: the bytes read so far, of
	// inputLen. Read only where the region is the reader's to take.
	consumed func() int64
	inputLen int64

	// The producer's: Append and Close use these without the lock. The
	// consumer touches them, under mu, only while the producer is parked
	// in waitForSpace or has closed the buffer.
	pending      kvio.Region
	pendingBytes int64
	producing    bool          // a produce stretch is open (the producer is neither waiting nor done)
	produceMark  time.Time     // start of the open produce stretch
	produceAcc   time.Duration // closed stretches' time accumulated for the pending spill

	// What Append reads without the lock. All but spillAt are written
	// under mu, so that whoever decides to wait cannot miss the change.
	closed   atomic.Bool
	inflight atomic.Int64
	parked   atomic.Bool  // the consumer waits in NextSpill with nothing to take
	spillAt  atomic.Int64 // x·M in bytes; x is re-read from the controller after each Record, the only place it moves
	spills   atomic.Int64

	mu         sync.Mutex
	cond       *sync.Cond
	home       *Regions // where the regions come from and go back to
	ready      Spill    // the producer's hand-off, until the consumer picks it up
	hasReady   bool
	blockedFor int64 // charge of the record the producer is parked for; 0 while it is not parked
	aborted    bool  // the consumer is gone: what is pending is dropped, not spilled
	dropped    bool  // no region is pending any more: the last one has left as a spill or gone home
	seq        int
	spillBytes int64
	maxPending int64
}

// New creates a buffer of capacity bytes governed by ctrl; instrumentation
// is recorded into tm (which may be nil). The buffer recycles its regions
// through slots of its own.
func New(capacity int64, ctrl spillmatch.Controller, tm *metrics.TaskMetrics) (*Buffer, error) {
	return NewOn(new(Regions), capacity, ctrl, tm)
}

// NewOn is New for a buffer that borrows its regions from home: it starts
// on one of home's regions, and home holds every region again once the
// buffer is done, so that the next buffer on home fills what this one grew.
func NewOn(home *Regions, capacity int64, ctrl spillmatch.Controller, tm *metrics.TaskMetrics) (*Buffer, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("spillbuf: capacity must be positive, got %d", capacity)
	}
	if capacity > MaxCapacity {
		return nil, fmt.Errorf("spillbuf: capacity %d exceeds the %d arena-offset bound", capacity, int64(MaxCapacity))
	}
	if ctrl == nil {
		ctrl = spillmatch.NewStatic(spillmatch.DefaultStaticPercent)
	}
	b := &Buffer{capacity: capacity, ctrl: ctrl, tm: tm, now: time.Now, producing: true,
		home: home, pending: home.take()}
	if tm != nil {
		b.now = tm.Now
	}
	b.produceMark = b.now()
	b.setSpillAt(ctrl.Percent())
	b.cond = sync.NewCond(&b.mu)
	return b, nil
}

// AttachTrace attributes the buffer's wait spans and spill instants to the
// given tracer under (node, task, slot). Call before the first Append; a
// nil tracer leaves tracing off.
func (b *Buffer) AttachTrace(tr *trace.Tracer, node, task, slot int) {
	b.tr = tr
	b.trNode = node
	b.trTask = task
	b.trSlot = slot
}

// AttachInput tells the buffer how far the producer has read its input:
// consumed reports the bytes read so far, of total. A region the buffer has
// to make for what follows a spill is then sized for the output the rest
// of the input is expected to make, at the rate so far, instead of like
// the spill. Call before the first Append. consumed is called on the
// producer's goroutine, or while the producer is parked or done.
func (b *Buffer) AttachInput(consumed func() int64, total int64) {
	b.consumed = consumed
	b.inputLen = total
}

// Capacity returns M.
func (b *Buffer) Capacity() int64 { return b.capacity }

// RecordBytes returns the buffer charge for one record.
func RecordBytes(key, value []byte) int64 {
	return int64(len(key)) + int64(len(value)) + recordOverhead
}

// setSpillAt caches the threshold x·M as the least whole number of bytes
// that reaches it.
func (b *Buffer) setSpillAt(pct float64) {
	b.spillAt.Store(int64(math.Ceil(pct * float64(b.capacity))))
}

// full reports whether a record of size bytes has to wait for space. An
// empty buffer admits any record (the oversized-record escape hatch).
// Only the producer, or the consumer while the producer is parked, may
// ask.
func (b *Buffer) full(size int64) bool {
	//mrlint:ignore lockcheck the producer's field: it reads it lock-free, the consumer under mu only while the producer is parked
	used := b.pendingBytes + b.inflight.Load()
	return used+size > b.capacity && used > 0 && !b.closed.Load()
}

// Append adds one record (copying key and value) under partition part,
// which must be a partition of the job. It blocks while the buffer is
// full and returns ErrClosed after Close or Abort. The returned duration
// is the time spent blocked, which the caller excludes from its own
// operation accounting (it is already recorded as map-thread idle time).
// An Append that neither blocks nor hands a spill off takes no lock and
// reads no clock.
func (b *Buffer) Append(part int, key, value []byte) (time.Duration, error) {
	var waited time.Duration
	size := RecordBytes(key, value)
	payload := len(key) + len(value)
	if b.full(size) {
		waited = b.waitForSpace(size)
	}
	if b.closed.Load() {
		return waited, b.refuse()
	}
	if int64(len(b.pending.Arena))+int64(payload) > maxArenaBytes {
		return waited, fmt.Errorf("spillbuf: record of %d bytes overflows the %d-byte arena offset space", int64(payload), int64(maxArenaBytes))
	}
	b.pending.Append(part, key, value)
	b.pendingBytes += size
	if b.parked.Load() && b.pendingBytes >= b.spillAt.Load() {
		// Consumer free and threshold reached: hand the region off. While
		// parked stays set the consumer is inside cond.Wait and its ready
		// slot is empty.
		b.mu.Lock()
		b.ready, b.hasReady = b.cutLocked(), true
		b.parked.Store(false)
		b.mu.Unlock()
		b.cond.Broadcast()
	}
	return waited, nil
}

// waitForSpace blocks the producer until a record of size bytes fits or
// the buffer is closed, and returns the time blocked. The producer's
// stretch ends where the wait begins and a new one opens where it ends.
// While it waits the pending region is the consumer's to cut, if it has
// reached the threshold or has to make room.
func (b *Buffer) waitForSpace(size int64) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.full(size) {
		return 0 // the spill in flight was released since Append looked
	}
	start := b.now()
	b.pauseProduceLocked(start)
	b.blockedFor = size
	b.cond.Broadcast() // a parked consumer looks again: buffer-full may justify a spill
	for b.full(size) {
		b.cond.Wait()
	}
	b.blockedFor = 0
	end := b.now()
	if !b.closed.Load() {
		b.producing, b.produceMark = true, end
	}
	waited := end.Sub(start)
	if b.tm != nil {
		b.tm.AddWaitMap(waited)
	}
	// The trace span reuses the same measured duration fed to AddWaitMap,
	// so trace-derived idle fractions agree with metrics exactly.
	b.tr.Complete(trace.KindWaitMap, trace.LaneMap, b.trNode, b.trTask, b.trSlot, start, waited)
	return waited
}

// refuse is Append's answer on a closed buffer. After an Abort nobody will
// spill what is pending, so the producer puts its region back home.
func (b *Buffer) refuse() error {
	b.mu.Lock()
	if b.aborted {
		b.dropPendingLocked()
	}
	b.mu.Unlock()
	return ErrClosed
}

// pauseProduceLocked closes the open produce stretch at now. The caller
// holds b.mu.
func (b *Buffer) pauseProduceLocked(now time.Time) {
	if b.producing {
		b.produceAcc += now.Sub(b.produceMark)
		b.producing = false
	}
}

// cutLocked makes a spill of the pending region and starts the next one on
// the region at home, or on a twin of the spill's, sized for what is
// expected to follow it, when none is. The caller holds b.mu and the region
// is its to take: it is the producer, or the producer is parked or done.
func (b *Buffer) cutLocked() Spill {
	b.checkPendingSum("hand-off")
	b.tr.Instant(trace.KindSpillHandoff, trace.LaneSupport, b.trNode, b.trTask, b.pendingBytes)
	if b.producing {
		// The producer's own hand-off cuts its stretch in two: what came
		// before belongs to this spill.
		now := b.now()
		b.produceAcc += now.Sub(b.produceMark)
		b.produceMark = now
	}
	s := Spill{Recs: b.pending, Bytes: b.pendingBytes, Produce: b.produceAcc, Seq: b.seq}
	b.seq++
	b.spills.Add(1)
	b.spillBytes += b.pendingBytes
	b.maxPending = max(b.maxPending, b.pendingBytes)
	b.inflight.Add(b.pendingBytes)
	if b.closed.Load() {
		// The last spill: the region leaves as the spill and nothing is
		// pending any more.
		b.pending, b.dropped = kvio.Region{}, true
	} else if b.pending = b.home.take(); cap(b.pending.Arena) == 0 {
		b.pending = s.Recs.Twin(b.restShareLocked(s.Bytes)) // nothing to recycle
	}
	b.pendingBytes = 0
	b.produceAcc = 0
	b.checkInvariants("hand-off")
	return s
}

// restShareLocked is the part of a spill of spill bytes that the rest of the
// input is expected to fill: the bytes spilled so far per input byte read,
// times the input left, over spill. It is 1, a spill like this one, when no
// input is attached or none has been read. The caller holds b.mu, as in
// cutLocked.
func (b *Buffer) restShareLocked(spill int64) float64 {
	if b.consumed == nil {
		return 1
	}
	read := b.consumed()
	if read <= 0 {
		return 1
	}
	return float64(b.spillBytes) / float64(read) * float64(max(b.inputLen-read, 0)) / float64(spill)
}

// dropPendingLocked puts the pending region back home, records and all.
// The caller holds b.mu and nobody will append to or spill the region.
func (b *Buffer) dropPendingLocked() {
	if !b.dropped {
		b.dropped = true
		b.home.put(b.pending)
		b.pending, b.pendingBytes = kvio.Region{}, 0
	}
}

// Close is the producer's end of input. The consumer will receive any
// remaining pending records as a final spill and then be told the stream
// is done.
func (b *Buffer) Close() {
	b.mu.Lock()
	if !b.closed.Load() {
		b.closed.Store(true)
		b.pauseProduceLocked(b.now())
	}
	if b.aborted {
		b.dropPendingLocked()
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}

// Abort is the consumer's way out when it cannot go on: the buffer is
// closed, a producer blocked in Append — now or later — gets ErrClosed,
// and what is pending is dropped instead of spilled. The consumer must
// have Released the spill it held and must not call NextSpill again.
func (b *Buffer) Abort() {
	b.mu.Lock()
	if b.closed.Load() && !b.aborted {
		b.dropPendingLocked() // the producer is done and will not come back for it
	}
	b.closed.Store(true)
	b.aborted = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// NextSpill blocks until a spill is available and returns it, or returns
// ok=false when the buffer is closed and fully drained. Consumer idle time
// is recorded as support-thread wait.
func (b *Buffer) NextSpill() (s Spill, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		switch {
		case b.hasReady:
			s, b.ready, b.hasReady = b.ready, Spill{}, false
			return s, true
		case b.closed.Load():
			// The producer is done: whatever is pending is the last spill.
			// (After an Abort the pending region is the producer's to drop.)
			if b.aborted {
				return Spill{}, false
			}
			if b.pendingBytes > 0 {
				return b.cutLocked(), true
			}
			b.dropPendingLocked()
			return Spill{}, false
		case b.blockedFor > 0 && b.pendingBytes > 0 &&
			(b.pendingBytes >= b.spillAt.Load() || b.full(b.blockedFor)):
			// The producer is parked: the region has reached the threshold
			// while this consumer was busy, or — below x·M — the record
			// waited for does not fit beside it and nothing in flight is
			// left to release. The producer's record may fit beside the
			// spill, so it looks again.
			s = b.cutLocked()
			b.cond.Broadcast()
			return s, true
		}
		b.parked.Store(true)
		waitStart := b.now()
		b.cond.Wait()
		w := b.now().Sub(waitStart)
		b.parked.Store(false)
		if b.tm != nil {
			b.tm.AddWaitSupport(w)
		}
		b.tr.Complete(trace.KindWaitSupport, trace.LaneSupport, b.trNode, b.trTask, b.trSlot, waitStart, w)
	}
}

// Release frees a consumed spill's bytes, reports its measurements to the
// controller, and wakes a blocked producer. consume is the consumer's
// active processing time for the spill. The spill's region goes back
// home; the caller must not touch s.Recs afterwards.
func (b *Buffer) Release(s Spill, consume time.Duration) {
	b.ctrl.Record(s.Bytes, s.Produce, consume)
	pct := b.ctrl.Percent()
	b.setSpillAt(pct)
	b.mu.Lock()
	b.home.put(s.Recs)
	b.inflight.Add(-s.Bytes)
	b.checkInvariants("Release")
	b.mu.Unlock()
	// Arg carries the controller's post-Record spill percentage in basis
	// points, so adaptive threshold moves are visible on the timeline.
	b.tr.Instant(trace.KindSpillDecision, trace.LaneSupport, b.trNode, b.trTask, int64(pct*10000))
	b.cond.Broadcast()
}

// Stats describes the buffer's activity after the task completes.
type Stats struct {
	Spills     int
	SpillBytes int64
	MaxPending int64
}

// Stats returns activity counters.
func (b *Buffer) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return Stats{Spills: int(b.spills.Load()), SpillBytes: b.spillBytes, MaxPending: b.maxPending}
}
