// Package trace is the runtime's span tracer: a low-overhead, lock-striped
// ring-buffer event recorder that captures one MapReduce job's timeline at
// the granularity the paper measures — per-task spans (map-task, spill,
// sort, combine, shuffle-copy, shuffle-fetch, reduce-task), per-goroutine lanes
// (map / support / reduce / scheduler), and instant events for the
// scheduler and optimizer decisions (spill handoffs, spill-matcher
// percentages, frequency-buffer evictions, work steals).
//
// The recorder exists to make the paper's figures directly observable on a
// live run instead of only as post-hoc aggregates: Fig. 9's map/support
// overlap is the map and support lanes of one node rendered side by side,
// and Table II's busy/idle accounting falls out of the wait spans (see
// DeriveIdle). Export to the Chrome trace_event JSON format (WriteJSON)
// loads in ui.perfetto.dev with one process per node and one thread per
// goroutine lane; GanttMarked renders the same timeline in the terminal.
//
// Cost model: tracing is off unless a *Tracer is attached to the job, and
// every emit entry point is nil-receiver safe, so the disabled fast path is
// a nil check — no allocation, no clock read, benchmarked under 10 ns per
// span call site (BenchmarkSpanDisabled). When enabled, events are
// fixed-size structs written into per-stripe rings guarded by per-stripe
// mutexes; stripes are selected by (node, lane) so the goroutines of one
// task never contend with another node's. A full ring overwrites its
// oldest events and counts the overflow in Dropped rather than blocking
// the pipeline.
package trace

import (
	"cmp"
	"slices"
	"sync"
	"time"
)

// Kind identifies the typed span or instant an Event records.
type Kind uint8

// Span kinds ("X" complete events in the exported trace).
const (
	// KindJob spans the whole job, on the scheduler lane.
	KindJob Kind = iota
	// KindMapTask spans one map task attempt, on the map lane.
	KindMapTask
	// KindSpill spans the support goroutine consuming one spill.
	KindSpill
	// KindSort spans sorting one spill's records.
	KindSort
	// KindCombine spans the user combine() during one spill.
	KindCombine
	// KindShuffleFetch spans the reduce side opening map-output segments.
	KindShuffleFetch
	// KindShuffleCopy spans a shuffle copier staging one committed
	// map-output segment.
	KindShuffleCopy
	// KindReduceTask spans one reduce task attempt, on the reduce lane.
	KindReduceTask
	// KindWaitMap spans a map goroutine blocked on a full spill buffer.
	KindWaitMap
	// KindWaitSupport spans a support goroutine waiting for a spill.
	KindWaitSupport
	// KindWaitFabric spans time blocked in a simulated fabric transfer on
	// the shuffle path (copier staging hop, staged take, streamed fetch).
	KindWaitFabric
	// KindWaitRetry spans a reduce attempt's backoff sleep between
	// shuffle-fetch retries.
	KindWaitRetry
	// KindWaitQueue spans a reduce attempt between enqueue and a worker
	// slot picking it up.
	KindWaitQueue

	// KindSpillHandoff is the first instant kind ("i" events from here
	// down): a spill batch handed to the support goroutine.
	KindSpillHandoff
	// KindSpillDecision records the spill-matcher threshold after a
	// measurement.
	KindSpillDecision
	// KindFreqEviction records frequency-buffer aggregates overflowing to
	// the spill path.
	KindFreqEviction
	// KindWorkSteal records the scheduler giving a node a map task whose
	// split it holds no replica of (arg: the number of nodes that do).
	KindWorkSteal
	// KindTaskRetry records a failed attempt being requeued (arg: attempt
	// number).
	KindTaskRetry
	// KindNodeDeath records the runner noticing a node died (arg: dead
	// node).
	KindNodeDeath
	// KindSpeculativeLaunch records a backup attempt launched for a
	// straggler (arg: attempt).
	KindSpeculativeLaunch

	numKinds
)

// String returns the span name used in exports.
func (k Kind) String() string {
	if k >= numKinds {
		return "unknown"
	}
	return [numKinds]string{
		"job", "map-task", "spill", "sort", "combine",
		"shuffle-fetch", "shuffle-copy", "reduce-task", "wait-map", "wait-support",
		"wait-fabric", "wait-retry", "wait-queue",
		"spill-handoff", "spill-decision", "freq-eviction", "work-steal",
		"task-retry", "node-death", "speculative-launch",
	}[k]
}

// Instant reports whether k is an instant event kind rather than a span.
func (k Kind) Instant() bool { return k >= KindSpillHandoff && k < numKinds }

// Lane identifies which goroutine of the pipeline an event belongs to —
// the swimlane ("thread") it renders on. The order is the vertical order
// in the exported view: map over support makes the Fig. 9 overlap visible.
type Lane uint8

const (
	// LaneMap is the map goroutine's swimlane.
	LaneMap Lane = iota
	// LaneSupport is the spill/support goroutine's swimlane.
	LaneSupport
	// LaneReduce is the reduce goroutine's swimlane.
	LaneReduce
	// LaneScheduler is the job scheduler's swimlane.
	LaneScheduler
	numLanes
)

// String returns the lane name.
func (l Lane) String() string {
	if l >= numLanes {
		return "unknown"
	}
	return [numLanes]string{"map", "support", "reduce", "scheduler"}[l]
}

// Event is one recorded span or instant. It is a fixed-size value — the
// ring buffers hold events inline so recording allocates nothing.
type Event struct {
	TS      int64 // nanoseconds since the tracer epoch
	Dur     int64 // span duration in nanoseconds (0 for instants)
	Records int64 // record count carried by the span, if any
	Bytes   int64 // byte count carried by the span, if any
	Arg     int64 // instant payload (bytes, basis points, victim node, ...)
	Kind    Kind
	Lane    Lane
	Node    int32 // -1 for cluster-wide events (the job span)
	Task    int32 // task index within its kind; -1 when not task-scoped
	Slot    int32 // execution slot on the node, distinguishes concurrent tasks
}

// Duration returns the span duration as a time.Duration.
func (e Event) Duration() time.Duration { return time.Duration(e.Dur) }

// numStripes is the stripe count (power of two). Each (node, lane) pair
// maps to one stripe, so the two goroutines of a map task write to
// different stripes and different nodes rarely collide.
const numStripes = 16

// stripe is one ring buffer plus its lock, padded to its own cache lines.
type stripe struct {
	mu  sync.Mutex
	buf []Event
	n   int64 // total events ever written to this stripe
	_   [64]byte
}

// Tracer records events for one job (or several back-to-back jobs; the
// epoch is set at construction). The zero *Tracer (nil) is a valid
// disabled tracer: every method is a no-op nil check.
type Tracer struct {
	epoch   time.Time
	stripes [numStripes]stripe
}

// DefaultCapacity is the default total event capacity: enough for every
// experiment configuration in the repo at ~64 bytes an event.
const DefaultCapacity = 1 << 18

// New returns a Tracer holding up to capacity events (rounded up to a
// multiple of the stripe count); capacity <= 0 uses DefaultCapacity.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	per := (capacity + numStripes - 1) / numStripes
	t := &Tracer{epoch: time.Now()}
	for i := range t.stripes {
		t.stripes[i].buf = make([]Event, per)
	}
	return t
}

// stripeFor picks the ring for an event source. Node -1 (job-level) and
// the scheduler lane hash like node 0 lanes; contention there is rare.
func (t *Tracer) stripeFor(node int32, lane Lane) *stripe {
	h := (uint32(node+1)*uint32(numLanes) + uint32(lane)) & (numStripes - 1)
	return &t.stripes[h]
}

// emit appends one event to its stripe's ring, overwriting the oldest
// event when full.
func (t *Tracer) emit(ev Event) {
	s := t.stripeFor(ev.Node, ev.Lane)
	s.mu.Lock()
	s.buf[s.n%int64(len(s.buf))] = ev
	s.n++
	s.mu.Unlock()
}

// Span is an open span handle. The zero Span (from a nil Tracer) is a
// valid no-op; End and EndCounts on it return immediately. It is kept
// small (32 bytes: the start instant is nanoseconds since the tracer
// epoch, not a time.Time, and the attempt number rides in a byte of
// padding) so the disabled path moves one register-sized zero struct.
type Span struct {
	tr      *Tracer
	start   int64 // ns since tr.epoch
	kind    Kind
	lane    Lane
	attempt uint8 // task attempt number, exported as the span's Arg
	node    int32
	task    int32
	slot    int32
}

// Start opens a span of the given kind on (node, task, slot) for task.
// Safe on a nil Tracer (returns a no-op Span). The nil branch is kept
// small enough to inline at every call site — the disabled cost of an
// instrumented hot path is this nil check plus a zero-struct return.
func (t *Tracer) Start(kind Kind, lane Lane, node, task, slot int) Span {
	if t == nil {
		return Span{}
	}
	return t.startSpan(kind, lane, node, task, slot, 0)
}

// StartAttempt opens a task span carrying its attempt number, which the
// export surfaces as the span's arg — retries and speculative backups of
// one task are distinguishable on the timeline. Safe on a nil Tracer.
func (t *Tracer) StartAttempt(kind Kind, lane Lane, node, task, slot, attempt int) Span {
	if t == nil {
		return Span{}
	}
	return t.startSpan(kind, lane, node, task, slot, attempt)
}

// startSpan is the enabled path, out of line so Start stays inlinable.
func (t *Tracer) startSpan(kind Kind, lane Lane, node, task, slot, attempt int) Span {
	return Span{tr: t, start: time.Since(t.epoch).Nanoseconds(), kind: kind, lane: lane,
		attempt: uint8(attempt), node: int32(node), task: int32(task), slot: int32(slot)}
}

// End closes the span with no counters.
func (s Span) End() {
	if s.tr == nil {
		return
	}
	s.endSpan(0, 0)
}

// EndCounts closes the span, attaching record and byte counters.
func (s Span) EndCounts(records, bytes int64) {
	if s.tr == nil {
		return
	}
	s.endSpan(records, bytes)
}

// endSpan is the enabled path, out of line so End/EndCounts inline.
func (s Span) endSpan(records, bytes int64) {
	now := time.Since(s.tr.epoch).Nanoseconds()
	s.tr.emit(Event{
		TS:      s.start,
		Dur:     now - s.start,
		Records: records,
		Bytes:   bytes,
		Arg:     int64(s.attempt),
		Kind:    s.kind,
		Lane:    s.lane,
		Node:    s.node,
		Task:    s.task,
		Slot:    s.slot,
	})
}

// Complete records an already-measured span: start and dur come from the
// caller's own clock reads, so trace accounting matches the caller's
// metrics accounting exactly (the wait spans use this). Safe on nil.
func (t *Tracer) Complete(kind Kind, lane Lane, node, task, slot int, start time.Time, dur time.Duration) {
	if t == nil || dur <= 0 {
		return
	}
	t.complete(kind, lane, node, task, slot, start, dur)
}

// complete is the enabled path, out of line so Complete inlines.
func (t *Tracer) complete(kind Kind, lane Lane, node, task, slot int, start time.Time, dur time.Duration) {
	t.emit(Event{
		TS:   start.Sub(t.epoch).Nanoseconds(),
		Dur:  dur.Nanoseconds(),
		Kind: kind,
		Lane: lane,
		Node: int32(node),
		Task: int32(task),
		Slot: int32(slot),
	})
}

// Instant records a point event with one integer payload. Safe on nil.
func (t *Tracer) Instant(kind Kind, lane Lane, node, task int, arg int64) {
	if t == nil {
		return
	}
	t.instant(kind, lane, node, task, arg)
}

// instant is the enabled path, out of line so Instant inlines.
func (t *Tracer) instant(kind Kind, lane Lane, node, task int, arg int64) {
	t.emit(Event{
		TS:   time.Since(t.epoch).Nanoseconds(),
		Arg:  arg,
		Kind: kind,
		Lane: lane,
		Node: int32(node),
		Task: int32(task),
	})
}

// Dropped returns how many events were overwritten by ring wrap-around.
// A report derived from a tracer with Dropped() > 0 is incomplete.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	var dropped int64
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		if over := s.n - int64(len(s.buf)); over > 0 {
			dropped += over
		}
		s.mu.Unlock()
	}
	return dropped
}

// Events returns a snapshot of all recorded events in timestamp order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	var out []Event
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		n := s.n
		if n > int64(len(s.buf)) {
			n = int64(len(s.buf))
		}
		out = append(out, s.buf[:n]...)
		s.mu.Unlock()
	}
	sortEvents(out)
	return out
}

// sortEvents orders events by timestamp, a longer span before a shorter
// one at the same instant so parents precede their children.
func sortEvents(events []Event) {
	slices.SortStableFunc(events, func(a, b Event) int {
		if c := cmp.Compare(a.TS, b.TS); c != 0 {
			return c
		}
		return cmp.Compare(b.Dur, a.Dur)
	})
}

// IdleReport is the trace-derived Table II busy/idle accounting for the
// map phase: wait-span time over map-task wall time, per goroutine lane.
type IdleReport struct {
	MapTaskWall time.Duration // Σ map-task span durations
	MapWait     time.Duration // Σ wait-map span durations
	SupportWait time.Duration // Σ wait-support span durations
}

// MapIdleFraction returns the map goroutines' idle share of map-task wall
// time — the trace-derived "Map, Idle" column of Table II.
func (r IdleReport) MapIdleFraction() float64 {
	if r.MapTaskWall == 0 {
		return 0
	}
	return float64(r.MapWait) / float64(r.MapTaskWall)
}

// SupportIdleFraction returns the support goroutines' idle share — the
// trace-derived "Support, Idle" column of Table II.
func (r IdleReport) SupportIdleFraction() float64 {
	if r.MapTaskWall == 0 {
		return 0
	}
	return float64(r.SupportWait) / float64(r.MapTaskWall)
}

// DeriveIdle computes the busy/idle fractions of Table II from a trace,
// the cross-check for the metrics layer's wait accounting
// (Result.MapIdleFraction / Result.SupportIdleFraction).
func DeriveIdle(events []Event) IdleReport {
	var r IdleReport
	for _, e := range events {
		switch e.Kind {
		case KindMapTask:
			r.MapTaskWall += e.Duration()
		case KindWaitMap:
			r.MapWait += e.Duration()
		case KindWaitSupport:
			r.SupportWait += e.Duration()
		}
	}
	return r
}
