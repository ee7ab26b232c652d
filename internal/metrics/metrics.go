// Package metrics implements the instrumentation layer used to reproduce the
// paper's cost accounting: the fine-grained operation taxonomy of Table I,
// per-goroutine busy/idle accounting (Table II, Fig. 9), and the aggregated
// "serialized view" of where a whole job's CPU time goes (Fig. 2, Fig. 8).
//
// Every task in the runtime owns a *TaskMetrics. The map-side pipeline
// records time per Op and wait (idle) time for both the map and support
// goroutines; the reduce side records shuffle and reduce time. A JobMetrics
// merges the per-task numbers exactly the way the paper describes Fig. 2:
// "measuring all the CPU cycles used by any thread on any machine during the
// job, then grouping by phase, then summing and normalizing".
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Op identifies one fine-grained operation from the paper's Table I
// taxonomy. The map phase splits into user map(), emit (serialize+collect),
// sort, user combine(), spill I/O and merge; the shuffle phase is framework
// only; the reduce phase splits into user reduce() and output I/O. Profile
// covers the extra work frequency-buffering itself adds (profiling + hash
// table maintenance), so its overhead is visible in breakdowns, as in
// Fig. 8's discussion.
type Op int

const (
	// OpMapUser is user map() execution.
	OpMapUser Op = iota
	// OpEmit is serializing records and appending to the spill buffer.
	OpEmit
	// OpSort is sorting a spill by (partition, key).
	OpSort
	// OpCombineUser is user combine() execution.
	OpCombineUser
	// OpSpillIO is writing spill runs to local disk.
	OpSpillIO
	// OpMerge is merge-sorting spill runs into the map output file.
	OpMerge
	// OpShuffle is fetching and merge-sorting map outputs on the reduce side.
	OpShuffle
	// OpReduceUser is user reduce() execution.
	OpReduceUser
	// OpOutputIO is writing final output to the DFS.
	OpOutputIO
	// OpProfile is frequency-buffering profiling + hash table overhead.
	OpProfile
	// NumOps is the sentinel count of operations.
	NumOps
)

var opNames = [NumOps]string{
	"map", "emit", "sort", "combine", "spill-io",
	"merge", "shuffle", "reduce", "output-io", "profile",
}

// String returns the short lower-case operation name used in reports.
func (op Op) String() string {
	if op < 0 || op >= NumOps {
		return fmt.Sprintf("op(%d)", int(op))
	}
	return opNames[op]
}

// UserOps reports whether op executes user-supplied code (map, combine,
// reduce); everything else is framework overhead — the "abstraction cost"
// the paper targets.
func (op Op) User() bool {
	return op == OpMapUser || op == OpCombineUser || op == OpReduceUser
}

// Phase identifies one of the three coarse MapReduce phases.
type Phase int

const (
	// PhaseMap covers everything inside map tasks, through the final merge.
	PhaseMap Phase = iota
	// PhaseShuffle covers moving map outputs to the reduce side.
	PhaseShuffle
	// PhaseReduce covers user reduce() and output I/O.
	PhaseReduce
	// NumPhases is the sentinel count of phases.
	NumPhases
)

var phaseNames = [NumPhases]string{"map", "shuffle", "reduce"}

// String returns the phase name.
func (p Phase) String() string { return phaseNames[p] }

// PhaseOf returns the coarse phase an operation belongs to, following
// Table I: everything up to and including merge happens inside map tasks,
// shuffle is its own phase, reduce and output I/O belong to reduce tasks.
func PhaseOf(op Op) Phase {
	switch op {
	case OpShuffle:
		return PhaseShuffle
	case OpReduceUser, OpOutputIO:
		return PhaseReduce
	default:
		return PhaseMap
	}
}

// Counter names for the byte/record accounting the experiments report.
const (
	CtrMapInputRecords   = "map.input.records"
	CtrMapOutputRecords  = "map.output.records"
	CtrMapOutputBytes    = "map.output.bytes"
	CtrSpillRecords      = "spill.records" // records written to spill runs
	CtrSpillBytes        = "spill.bytes"   // bytes written to spill runs
	CtrSpillCount        = "spill.count"   // number of spills
	CtrMergeBytes        = "merge.bytes"   // bytes written during final merge
	CtrShuffleBytes      = "shuffle.bytes" // bytes moved across the fabric
	CtrReduceInputGroups = "reduce.input.groups"
	CtrReduceInputValues = "reduce.input.values"
	CtrOutputRecords     = "output.records"
	CtrOutputBytes       = "output.bytes"
	CtrFreqHits          = "freqbuf.hits"      // records absorbed by the frequent-key table
	CtrFreqMisses        = "freqbuf.misses"    // records with non-frequent keys
	CtrFreqEvictions     = "freqbuf.evictions" // aggregates overflowed to the spill path
	CtrFreqProfiled      = "freqbuf.profiled"  // records seen during profiling
	CtrCombineInRecords  = "combine.input.records"
	CtrCombineOutRecords = "combine.output.records"
	CtrCleanupErrors     = "cleanup.errors"     // best-effort cleanup failures (spill/output removal)
	CtrLocalMapTasks     = "sched.local.tasks"  // map tasks placed on a node holding a replica of their split
	CtrStolenMapTasks    = "sched.stolen.tasks" // map tasks placed on a node holding no replica

	// Fault-tolerance counters (the attempt machinery).
	CtrMapAttempts       = "ft.map.attempts"        // map attempts started, retries and backups included
	CtrReduceAttempts    = "ft.reduce.attempts"     // reduce attempts started
	CtrTaskRetries       = "ft.task.retries"        // failed attempts that were requeued
	CtrSpeculativeTasks  = "ft.speculative.tasks"   // backup attempts launched for stragglers
	CtrSpeculativeWins   = "ft.speculative.wins"    // backups that committed before the original
	CtrRecoveredMapTasks = "ft.recovered.map.tasks" // completed map tasks re-run after node death
	CtrFailedAttempts    = "ft.failed.attempts"     // attempts that ended in an error
	CtrSweptAttemptDirs  = "ft.swept.attempt.dirs"  // failed/lost attempts' temp files swept

	// Pipelined-shuffle counters. The staging counters are recorded once
	// by the job's shuffle service (not per task), so Snapshot.Merge never
	// double-counts them.
	CtrShuffleEarlySegments  = "shuffle.early.segments"     // segments staged before the map phase finished (map/shuffle overlap)
	CtrShuffleStagedSegments = "shuffle.staged.segments"    // segments staged by the copier pool
	CtrShuffleStagedBytes    = "shuffle.staged.bytes"       // bytes fetched into staging, as they sit on the source disk (compressed length under CompressRuns)
	CtrShuffleStagingPeak    = "shuffle.staging.peak.bytes" // high-water mark of in-memory staging occupancy
	CtrShuffleStagedHits     = "shuffle.staged.hits"        // reduce-attempt fetches served from staging
	CtrShuffleFetchRetries   = "shuffle.fetch.retries"      // injected shuffle-fetch faults absorbed by per-source retry

	// Shuffle wait-time counters (nanoseconds). These are the totals behind
	// the latency histograms: blocked time on the simulated fabric and
	// backoff sleeps between fetch retries. The critical-path analyzer
	// cross-checks its blame report against them.
	CtrShuffleFabricWaitNS = "shuffle.fabric.wait.ns" // time blocked in simulated fabric transfers on the shuffle path
	CtrShuffleRetryWaitNS  = "shuffle.retry.wait.ns"  // backoff sleep between shuffle-fetch retries
)

// TaskMetrics accumulates instrumentation for a single task attempt. It is
// safe for concurrent use: the map and support goroutines of one map task
// both record into it.
type TaskMetrics struct {
	now      func() time.Time // the task's clock; every stopwatch on the task reads it
	mu       sync.Mutex
	ops      [NumOps]time.Duration
	waitMap  time.Duration // map goroutine blocked on a full spill buffer
	waitSup  time.Duration // support goroutine blocked waiting for a spill
	counters map[string]int64
}

// NewTaskMetrics returns an empty TaskMetrics on the wall clock.
func NewTaskMetrics() *TaskMetrics { return NewTaskMetricsClock(time.Now) }

// NewTaskMetricsClock returns an empty TaskMetrics whose stopwatches (the
// task's own, its EmitTimer's and its spill buffer's) read now instead of
// the wall clock, so tests can run them on fake time and count the reads.
func NewTaskMetricsClock(now func() time.Time) *TaskMetrics {
	return &TaskMetrics{now: now, counters: make(map[string]int64)}
}

// Now reads the task's clock.
func (t *TaskMetrics) Now() time.Time { return t.now() }

// Add records d duration of work attributed to op.
func (t *TaskMetrics) Add(op Op, d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.mu.Lock()
	t.ops[op] += d
	t.mu.Unlock()
	if liveEnabled.Load() {
		liveAddOp(op, d)
	}
}

// AddWaitMap records time the map goroutine spent blocked because the spill
// buffer was full (the "Map, Idle" column of Table II).
func (t *TaskMetrics) AddWaitMap(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.mu.Lock()
	t.waitMap += d
	t.mu.Unlock()
	if liveEnabled.Load() {
		liveAddWait(true, d)
	}
}

// AddWaitSupport records time the support goroutine spent blocked waiting
// for the next spill to be produced (the "Support, Idle" column of Table II).
func (t *TaskMetrics) AddWaitSupport(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.mu.Lock()
	t.waitSup += d
	t.mu.Unlock()
	if liveEnabled.Load() {
		liveAddWait(false, d)
	}
}

// Inc adds delta to the named counter. It takes the task's lock (and the
// process-wide live lock once live aggregation is on), so it belongs at
// spill and task boundaries; per-record code counts in a plain local and
// publishes the batch with Publish.
func (t *TaskMetrics) Inc(name string, delta int64) {
	t.Publish(Count{name, delta})
}

// Count is one counter increment of a Publish batch.
type Count struct {
	Name  string
	Delta int64
}

// Publish adds a batch of counter increments under one acquisition of the
// task's lock and, with live aggregation on, one of the live lock.
func (t *TaskMetrics) Publish(batch ...Count) {
	t.mu.Lock()
	for _, c := range batch {
		t.counters[c.Name] += c.Delta
	}
	t.mu.Unlock()
	if liveEnabled.Load() {
		livePublish(batch)
	}
}

// Op returns the accumulated duration for op.
func (t *TaskMetrics) Op(op Op) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ops[op]
}

// WaitMap returns accumulated map-goroutine idle time.
func (t *TaskMetrics) WaitMap() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.waitMap
}

// WaitSupport returns accumulated support-goroutine idle time.
func (t *TaskMetrics) WaitSupport() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.waitSup
}

// Counter returns the value of the named counter (zero if never set).
func (t *TaskMetrics) Counter(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// Snapshot returns a consistent copy of the task's accumulated state.
func (t *TaskMetrics) Snapshot() Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Snapshot{WaitMap: t.waitMap, WaitSupport: t.waitSup, Counters: make(map[string]int64, len(t.counters))}
	s.Ops = t.ops
	for k, v := range t.counters {
		s.Counters[k] = v
	}
	return s
}

// Snapshot is an immutable copy of task or job instrumentation.
type Snapshot struct {
	Ops         [NumOps]time.Duration
	WaitMap     time.Duration
	WaitSupport time.Duration
	Counters    map[string]int64
}

// Merge adds other into s.
func (s *Snapshot) Merge(other Snapshot) {
	for i := range s.Ops {
		s.Ops[i] += other.Ops[i]
	}
	s.WaitMap += other.WaitMap
	s.WaitSupport += other.WaitSupport
	if s.Counters == nil {
		s.Counters = make(map[string]int64)
	}
	for k, v := range other.Counters {
		s.Counters[k] += v
	}
}

// TotalWork is the serialized-view total: the sum of all operation time
// across all threads, the denominator of Fig. 2's normalization.
func (s Snapshot) TotalWork() time.Duration {
	var sum time.Duration
	for _, d := range s.Ops {
		sum += d
	}
	return sum
}

// UserWork returns time spent in user-supplied code (map + combine + reduce).
func (s Snapshot) UserWork() time.Duration {
	return s.Ops[OpMapUser] + s.Ops[OpCombineUser] + s.Ops[OpReduceUser]
}

// Fraction returns op's share of total serialized work in [0,1]; it reports
// zero when no work was recorded.
func (s Snapshot) Fraction(op Op) float64 {
	total := s.TotalWork()
	if total == 0 {
		return 0
	}
	return float64(s.Ops[op]) / float64(total)
}

// Breakdown renders the snapshot as the Fig. 2-style normalized table:
// one row per operation with its absolute time and percentage share,
// ordered by the Table I pipeline order.
func (s Snapshot) Breakdown() string {
	var b strings.Builder
	total := s.TotalWork()
	fmt.Fprintf(&b, "%-10s %12s %7s\n", "operation", "time", "share")
	for op := Op(0); op < NumOps; op++ {
		if s.Ops[op] == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-10s %12s %6.1f%%\n", op, s.Ops[op].Round(time.Microsecond), 100*s.Fraction(op))
	}
	fmt.Fprintf(&b, "%-10s %12s %6.1f%%\n", "TOTAL", total.Round(time.Microsecond), 100.0)
	return b.String()
}

// CounterNames returns the sorted names of all non-zero counters.
func (s Snapshot) CounterNames() []string {
	names := make([]string, 0, len(s.Counters))
	for k, v := range s.Counters {
		if v != 0 {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	return names
}
