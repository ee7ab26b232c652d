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
//     adaptive under the spill-matcher). The consumer takes *all* pending
//     records — so if it was busy while the threshold was crossed the
//     spill is larger, reproducing m_i = max{xM, min{(p/c)m_{i−1}, M−m_{i−1}}}.
//   - The handed-off spill keeps occupying its bytes until the consumer
//     Releases it; the producer blocks when pending + in-flight bytes hit
//     M. Producer block time and consumer idle time are recorded as the
//     map/support idle times of Table II.
//
// Per spill the buffer measures the producer's active production time and
// the consumer's active consumption time and reports them to the
// controller — the T_p/T_c measurements the spill-matcher adapts on. The
// producer's time is kept per stretch, not per record: a stretch of
// production ends where the producer starts to wait, where the consumer
// takes the pending region, and at Close, so Append reads the clock only
// when it blocks.
//
// Records are stored packed, Hadoop kvbuffer/kvmeta-style: key and value
// bytes are appended into one arena and a compact kvio.Meta entry per
// record carries the partition, arena location, and cached key prefix. A
// spill hands the consumer the (meta, arena) pair directly — no
// per-record allocations — and Release recycles the batch's backing
// arrays for the next pending region, so a steady-state map task cycles
// a small fixed set of arenas instead of allocating two slices per
// record.
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

// ErrClosed is returned by Append after Close.
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

// A pending region with no history to size it from starts at seedRecords
// entries and seedArenaBytes of arena: enough records to observe the
// charge per record that reservePendingLocked projects onto the byte
// budget.
const (
	seedRecords    = 512
	seedArenaBytes = 8 << 10
)

// maxFreeBatches caps the recycling pool: one batch being refilled plus
// one in flight covers the paper's 1–1 producer/consumer shape.
const maxFreeBatches = 2

// Spill is one batch of records handed from the producer to the consumer.
type Spill struct {
	// Recs holds the spill's records in emit order, packed into a meta
	// array plus byte arena. The consumer owns it until Release, which
	// recycles the backing arrays.
	Recs kvio.PackedRecords
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

// Buffer is the spill buffer. One producer and one consumer goroutine use
// it concurrently (more consumers are permitted; the paper's configuration
// is 1–1).
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

	mu   sync.Mutex
	cond *sync.Cond

	spillAt      float64 // x·M in bytes; x is re-read from the controller after each Record, the only place it moves
	pending      kvio.PackedRecords
	pendingBytes int64
	inflight     int64
	closed       bool
	blocked      bool                 // producer currently blocked on a full buffer
	free         []kvio.PackedRecords // released batches, recycled as pending regions

	producing   bool          // a produce stretch is open (the producer is neither waiting nor done)
	produceMark time.Time     // start of the open produce stretch
	produceAcc  time.Duration // closed stretches' time accumulated for the pending spill
	seq         int
	spills      atomic.Int64 // written under mu; Handoffs reads it without
	spillBytes  int64
	maxPending  int64
	lastRecords int // length of the last region handed off: sizes the next fresh one
	lastArena   int
}

// New creates a buffer of capacity bytes governed by ctrl; instrumentation
// is recorded into tm (which may be nil).
func New(capacity int64, ctrl spillmatch.Controller, tm *metrics.TaskMetrics) (*Buffer, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("spillbuf: capacity must be positive, got %d", capacity)
	}
	if capacity > MaxCapacity {
		return nil, fmt.Errorf("spillbuf: capacity %d exceeds the %d arena-offset bound", capacity, int64(MaxCapacity))
	}
	if ctrl == nil {
		ctrl = spillmatch.NewStatic(spillmatch.DefaultStaticPercent)
	}
	b := &Buffer{capacity: capacity, ctrl: ctrl, tm: tm, now: time.Now, producing: true}
	if tm != nil {
		b.now = tm.Now
	}
	b.produceMark = b.now()
	b.spillAt = ctrl.Percent() * float64(capacity)
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

// Capacity returns M.
func (b *Buffer) Capacity() int64 { return b.capacity }

// RecordBytes returns the buffer charge for one record.
func RecordBytes(key, value []byte) int64 {
	return int64(len(key)) + int64(len(value)) + recordOverhead
}

// Handoffs returns the number of spills handed to the consumer so far. It
// is one atomic load, so the producer can poll it per input record to
// notice a spill boundary (where it publishes its record counters).
func (b *Buffer) Handoffs() int64 { return b.spills.Load() }

// fullLocked reports whether a record of size bytes has to wait for space.
// An empty buffer admits any record (the oversized-record escape hatch).
// The caller holds b.mu.
func (b *Buffer) fullLocked(size int64) bool {
	return !b.closed && b.pendingBytes+b.inflight+size > b.capacity && !(b.pendingBytes == 0 && b.inflight == 0)
}

// Append adds one record (copying key and value). It blocks while the
// buffer is full and returns ErrClosed after Close. The returned duration
// is the time spent blocked, which the caller excludes from its own
// operation accounting (it is already recorded as map-thread idle time).
// An Append that does not block reads no clock.
//
//mrlint:hotpath
func (b *Buffer) Append(part int, key, value []byte) (time.Duration, error) {
	var waited time.Duration
	size := RecordBytes(key, value)
	payload := len(key) + len(value)
	b.mu.Lock()
	if b.fullLocked(size) {
		waited = b.waitForSpaceLocked(size)
	}
	if b.closed {
		b.mu.Unlock()
		return waited, ErrClosed
	}
	if int64(len(b.pending.Arena))+int64(payload) > maxArenaBytes {
		b.mu.Unlock()
		//mrlint:ignore alloccheck cold path: multi-GiB record rejection, never taken per record
		return waited, fmt.Errorf("spillbuf: record of %d bytes overflows the %d-byte arena offset space", int64(payload), int64(maxArenaBytes))
	}
	if len(b.pending.Meta) == cap(b.pending.Meta) || len(b.pending.Arena)+payload > cap(b.pending.Arena) {
		//mrlint:ignore alloccheck cold path: sizes a region a few times in its life, not per record
		b.reservePendingLocked(payload)
	}
	b.pending.Append(part, key, value)
	b.pendingBytes += size
	if b.pendingBytes > b.maxPending {
		b.maxPending = b.pendingBytes
	}
	ready := float64(b.pendingBytes) >= b.spillAt
	b.checkInvariants("Append")
	b.mu.Unlock()
	if ready {
		b.cond.Broadcast()
	}
	return waited, nil
}

// waitForSpaceLocked blocks the producer until a record of size bytes
// fits or the buffer is closed, and returns the time blocked. The
// producer's stretch ends where the wait begins and a new one opens where
// it ends; the two clock readings are the only ones Append ever makes. The
// caller holds b.mu.
func (b *Buffer) waitForSpaceLocked(size int64) time.Duration {
	start := b.now()
	b.pauseProduceLocked(start)
	for b.fullLocked(size) {
		b.blocked = true
		b.cond.Broadcast() // wake the consumer: buffer-full also justifies a spill
		b.cond.Wait()
	}
	b.blocked = false
	end := b.now()
	if !b.closed {
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

// pauseProduceLocked closes the open produce stretch at now. The caller
// holds b.mu.
func (b *Buffer) pauseProduceLocked(now time.Time) {
	if b.producing {
		b.produceAcc += now.Sub(b.produceMark)
		b.producing = false
	}
}

// reservePendingLocked grows the pending region's capacity ahead of the
// Appends that fill it. The full size of a region is projected from what
// is known: a region following another is expected to reach that one's
// size; a task's first region starts at the seed size and, once
// seedRecords records show the charge per record, is projected onto the
// bytes the region may still take — up to the spill threshold, or, if the
// consumer is busy past that, up to the budget left beside the in-flight
// spill — plus an eighth for records lighter than the ones seen so far.
// Capacity then grows a quarter of the full size at a time. Measured on
// WordCount (8 MiB in 8 map tasks, 4 MiB buffer): with amortized regrowth
// from nothing the job allocated 56 bytes per input byte and held 100 MB
// live at its peak; sizing a region in one step allocated 35 but held
// 140 MB, because every task's last region, which its input fills to a
// third, was charged at full size; quarter steps allocate 39 and hold
// 100 MB. payload is the arena need of the record about to be appended.
// The caller holds b.mu.
func (b *Buffer) reservePendingLocked(payload int) {
	n, arena := len(b.pending.Meta), len(b.pending.Arena)
	records, bytes := seedRecords, seedArenaBytes
	if n >= seedRecords || b.lastRecords > 0 {
		fullRecords, fullBytes := b.lastRecords, b.lastArena
		if n >= seedRecords {
			limit := b.spillAt
			if float64(b.pendingBytes) >= limit {
				limit = float64(b.capacity - b.inflight)
			}
			scale := limit / float64(b.pendingBytes)
			fullRecords, fullBytes = int(float64(n)*scale), int(float64(arena)*scale)
		}
		fullRecords += fullRecords / 8
		fullBytes += fullBytes / 8
		records = min(fullRecords, cap(b.pending.Meta)+fullRecords/4)
		bytes = min(fullBytes, cap(b.pending.Arena)+fullBytes/4)
	}
	// Whatever the projection says, make room for this record and move
	// far enough that a wrong projection costs a few copies, not many.
	b.pending.Reserve(max(records, n+n/4+1), max(bytes, arena+arena/4+payload))
}

// Close signals end of input. The consumer will receive any remaining
// pending records as a final spill and then be told the stream is done.
func (b *Buffer) Close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		b.pauseProduceLocked(b.now())
	}
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
		takeable := b.pendingBytes > 0 &&
			(float64(b.pendingBytes) >= b.spillAt || b.closed || b.blocked)
		if takeable {
			b.checkPendingSum("NextSpill")
			b.tr.Instant(trace.KindSpillHandoff, trace.LaneSupport, b.trNode, b.trTask, b.pendingBytes)
			if b.producing {
				// The hand-off cuts the producer's stretch in two: what
				// came before belongs to this spill.
				now := b.now()
				b.pauseProduceLocked(now)
				b.producing, b.produceMark = true, now
			}
			s = Spill{
				Recs:    b.pending,
				Bytes:   b.pendingBytes,
				Produce: b.produceAcc,
				Seq:     b.seq,
			}
			b.seq++
			b.spills.Add(1)
			b.spillBytes += b.pendingBytes
			b.inflight += b.pendingBytes
			b.lastRecords, b.lastArena = len(b.pending.Meta), len(b.pending.Arena)
			// Start the next pending region on a recycled batch when one
			// is available, so steady state reuses the same arenas.
			b.pending = kvio.PackedRecords{}
			if n := len(b.free); n > 0 {
				b.pending = b.free[n-1]
				b.free = b.free[:n-1]
			}
			b.pendingBytes = 0
			b.produceAcc = 0
			b.checkInvariants("NextSpill")
			return s, true
		}
		if b.closed && b.pendingBytes == 0 {
			// Nothing more will be appended: let go of the arenas, so a
			// map task does not carry them through its final merge.
			b.free, b.pending = nil, kvio.PackedRecords{}
			return Spill{}, false
		}
		waitStart := b.now()
		b.cond.Wait()
		w := b.now().Sub(waitStart)
		if b.tm != nil {
			b.tm.AddWaitSupport(w)
		}
		b.tr.Complete(trace.KindWaitSupport, trace.LaneSupport, b.trNode, b.trTask, b.trSlot, waitStart, w)
	}
}

// Release frees a consumed spill's bytes, reports its measurements to the
// controller, and wakes a blocked producer. consume is the consumer's
// active processing time for the spill. The spill's backing arrays are
// recycled; the caller must not touch s.Recs afterwards.
func (b *Buffer) Release(s Spill, consume time.Duration) {
	b.ctrl.Record(s.Bytes, s.Produce, consume)
	pct := b.ctrl.Percent()
	b.mu.Lock()
	b.spillAt = pct * float64(b.capacity)
	b.inflight -= s.Bytes
	if b.inflight < 0 {
		b.inflight = 0
	}
	if len(b.free) < maxFreeBatches && !b.closed {
		s.Recs.Reset()
		b.free = append(b.free, s.Recs)
	}
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
