// Package critpath turns a recorded trace into an explanation: it
// reconstructs the job's span DAG, extracts the critical path — the chain
// of task spans and structural gaps the job's wall clock actually waited
// on — and attributes every nanosecond of it to a named cause (map
// compute, spill/sort pressure, copier CPU/disk steal, fabric wait, fetch
// retry, shuffle I/O, reduce compute, queue wait, scheduler slack). This is the analysis the ROADMAP's
// copier-scaling diagnosis and the planned self-tuning controller need:
// the trace substrate records what happened; this package says what it
// cost and why.
//
// The model exploits the runner's barriered phase structure. The reduce
// phase cannot start before the last map task commits, so the critical
// path runs backwards from the job's end: the last-finishing reduce
// attempt, its queue wait, the map-phase barrier, then the chain of map
// attempts that kept the barrier's last slot busy, back to the job start.
// Each task step is decomposed by interval arithmetic over the wait spans
// recorded inside it (the same caller-measured durations the metrics
// layer accounts, so blame totals cross-check job Results), and the
// decomposition of every task — critical or not — is summed into an
// aggregate activity view.
//
// The per-node utilization timelines generalize the Table II idle-fraction
// cross-check: each (node, lane) track integrates busy time (span coverage
// minus wait coverage) over sample buckets, so phase-long averages like
// Result.MapIdleFraction become time-resolved curves.
package critpath

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"mrtext/internal/trace"
)

// Cause names one destination wall time is attributed to.
type Cause int

// The blame taxonomy. Map-phase steps split into the first three causes;
// reduce-phase steps into the shuffle and compute causes; structural gaps
// (phase turnover, slot idle between waves, post-task barrier drain)
// become CauseScheduler.
const (
	// CauseMapCompute is map-task time not explained by waits or copier
	// overlap: user map() plus the emit path.
	CauseMapCompute Cause = iota
	// CauseSpillSort is sort/spill pressure on the critical map chain:
	// map-goroutine time blocked on a full spill buffer.
	CauseSpillSort
	// CauseCopierSteal is critical-map-task time during which shuffle
	// copiers were active against the task's node (reading its disk or
	// staging onto it) — the fan-out contention the copier-scaling
	// question is about.
	CauseCopierSteal
	// CauseFabricWait is time blocked in simulated fabric transfers on
	// the shuffle path (wait-fabric spans).
	CauseFabricWait
	// CauseFetchRetry is reduce-attempt backoff sleep between shuffle
	// fetch retries (wait-retry spans).
	CauseFetchRetry
	// CauseShuffleIO is shuffle-fetch span time not inside fabric or
	// retry waits: opening and reading segments, and waiting for a staging
	// copy already reading one.
	CauseShuffleIO
	// CauseReduceCompute is reduce-task time not explained by the
	// shuffle causes: merge pulls, user reduce() and output I/O.
	CauseReduceCompute
	// CauseQueueWait is reduce-attempt time between enqueue and a worker
	// slot picking it up, as its recorded wait-queue span measures it.
	CauseQueueWait
	// CauseScheduler is structural slack: gaps between chained spans,
	// phase turnover, and the tail between the last task and job end.
	CauseScheduler
	// NumCauses is the sentinel count.
	NumCauses
)

var causeNames = [NumCauses]string{
	"map-compute", "spill-sort", "copier-steal", "fabric-wait",
	"fetch-retry", "shuffle-io", "reduce-compute", "queue-wait",
	"scheduler-other",
}

// String returns the cause's report name.
func (c Cause) String() string {
	if c < 0 || c >= NumCauses {
		return fmt.Sprintf("cause(%d)", int(c))
	}
	return causeNames[c]
}

// Step is one segment of the critical path: a task span (map-task,
// reduce-task), a wait span, or a structural gap, with its wall time
// decomposed by cause.
type Step struct {
	// Event is the span this step follows; for structural gaps it is a
	// zero-duration placeholder whose Kind is the gap's blame cause proxy
	// (Event.Dur == 0 and Synthetic == true).
	Event     trace.Event
	Synthetic bool          // true for gaps not backed by a recorded span
	Start     time.Duration // offset from job start
	End       time.Duration // offset from job start
	Blame     [NumCauses]time.Duration
}

// Wall returns the step's extent on the critical path.
func (s Step) Wall() time.Duration { return s.End - s.Start }

// PhaseBlame is one phase's wall time split by cause. The causes sum to
// Wall up to millisecond-level chaining slack: the critical path covers
// the phase with no gaps, and adjacent steps may overlap by at most the
// chaining tolerance when boundary clock reads straddle each other.
type PhaseBlame struct {
	Wall   time.Duration
	Causes [NumCauses]time.Duration
}

// Fraction returns cause c's share of the phase wall in [0,1].
func (p PhaseBlame) Fraction(c Cause) float64 {
	if p.Wall <= 0 {
		return 0
	}
	return float64(p.Causes[c]) / float64(p.Wall)
}

// Timeline is one (node, lane) utilization track: busy fraction of the
// lane's slot capacity per sample bucket, plus the exact (unsampled)
// integrals the Table II cross-check uses.
type Timeline struct {
	Node       int
	Lane       trace.Lane
	Slots      int           // distinct execution slots observed on the track
	Busy       []float64     // per-bucket busy fraction of slot capacity, in [0,1]
	BusyNS     time.Duration // exact Σ over slots of (span coverage − wait coverage)
	WaitNS     time.Duration // exact Σ over slots of wait-span coverage
	OccupiedNS time.Duration // exact Σ over slots of non-wait span coverage
}

// Report is the full analysis of one recorded job.
type Report struct {
	JobWall time.Duration // job span extent
	MapEnd  time.Duration // map→reduce barrier, offset from job start
	Map     PhaseBlame    // critical-path blame over [0, MapEnd]
	Reduce  PhaseBlame    // critical-path blame over [MapEnd, JobWall]
	Path    []Step        // the critical path in time order, covering [0, JobWall]
	// Activity is the aggregate view: every task span in the trace —
	// critical or not — decomposed by the same rules and summed, plus the
	// free-standing queue-wait spans. Unlike the critical-path
	// blame it does not sum to wall time; it sums to total decomposed
	// span time, the serialized Fig. 2-style denominator.
	Activity    [NumCauses]time.Duration
	Timelines   []Timeline // sorted by (node, lane)
	Buckets     int
	BucketWidth time.Duration
}

// PathEvents returns the recorded spans on the critical path (synthetic
// gap steps excluded) — the marked set for trace.GanttMarked.
func (r *Report) PathEvents() []trace.Event {
	evs := make([]trace.Event, 0, len(r.Path))
	for _, s := range r.Path {
		if !s.Synthetic {
			evs = append(evs, s.Event)
		}
	}
	return evs
}

// timelineBuckets is the utilization timelines' resolution.
const timelineBuckets = 60

// epsNS is the slack allowed when chaining spans whose boundary clock
// reads happen a few statements apart.
const epsNS = int64(2 * time.Millisecond)

// Analyze reconstructs the critical path, blame attribution, activity
// totals and utilization timelines from a recorded trace. It accepts
// events from Tracer.Events or trace.ParseJSON; instants are ignored. It
// errors when the trace holds no spans.
func Analyze(events []trace.Event) (*Report, error) {
	ix := buildIndex(events)
	if len(ix.spans) == 0 {
		return nil, fmt.Errorf("critpath: trace holds no span events")
	}
	r := &Report{Buckets: timelineBuckets}
	r.JobWall = time.Duration(ix.jobEnd - ix.jobStart)
	r.MapEnd = time.Duration(ix.mapEnd - ix.jobStart)

	// The critical path, built forward by assembling the map chain, the
	// phase turnover, and the critical reduce attempt.
	r.Path = append(r.Path, ix.mapChain()...)
	r.Path = append(r.Path, ix.reduceChain()...)

	for _, s := range r.Path {
		phase := &r.Map
		if s.Start >= r.MapEnd {
			phase = &r.Reduce
		}
		for c := Cause(0); c < NumCauses; c++ {
			phase.Causes[c] += s.Blame[c]
		}
	}
	r.Map.Wall = r.MapEnd
	r.Reduce.Wall = r.JobWall - r.MapEnd

	// Aggregate activity: decompose every task span, then add the
	// free-standing waits no task span contains.
	for _, m := range ix.kind[trace.KindMapTask] {
		b := ix.decomposeMap(m)
		for c := Cause(0); c < NumCauses; c++ {
			r.Activity[c] += b[c]
		}
	}
	for _, rt := range ix.kind[trace.KindReduceTask] {
		b := ix.decomposeReduce(rt)
		for c := Cause(0); c < NumCauses; c++ {
			r.Activity[c] += b[c]
		}
	}
	for _, e := range ix.kind[trace.KindWaitQueue] {
		r.Activity[CauseQueueWait] += e.Duration()
	}

	r.Timelines, r.BucketWidth = ix.timelines(timelineBuckets)
	return r, nil
}

// ---------------------------------------------------------------------
// Index: the span DAG's adjacency structures.

type nodeTask struct {
	node, task int32
}

type attemptKey struct {
	node, task, slot int32
}

type index struct {
	spans []trace.Event // all span (non-instant) events
	kind  map[trace.Kind][]trace.Event

	jobStart, jobEnd, mapEnd int64

	waitMapBy map[nodeTask][]iv // wait-map spans by owning task
	fetchBy   map[attemptKey][]iv
	fabricBy  map[attemptKey][]iv
	retryBy   map[attemptKey][]iv
	queueBy   map[attemptKey][]trace.Event
	// copyByNode holds shuffle-copy spans indexed by every node they
	// contend with: the staging home they run on (span.Node) and the
	// source node whose disk they read (the node of the map task the
	// span's Task names).
	copyByNode map[int32][]iv
}

func buildIndex(events []trace.Event) *index {
	ix := &index{
		kind:       make(map[trace.Kind][]trace.Event),
		waitMapBy:  make(map[nodeTask][]iv),
		fetchBy:    make(map[attemptKey][]iv),
		fabricBy:   make(map[attemptKey][]iv),
		retryBy:    make(map[attemptKey][]iv),
		queueBy:    make(map[attemptKey][]trace.Event),
		copyByNode: make(map[int32][]iv),
	}
	var haveJob bool
	minTS := int64(0)
	maxEnd := int64(0)
	first := true
	for _, e := range events {
		if e.Kind.Instant() {
			continue
		}
		ix.spans = append(ix.spans, e)
		ix.kind[e.Kind] = append(ix.kind[e.Kind], e)
		if first || e.TS < minTS {
			minTS = e.TS
		}
		if end := e.TS + e.Dur; first || end > maxEnd {
			maxEnd = end
		}
		first = false
		at := attemptKey{e.Node, e.Task, e.Slot}
		switch e.Kind {
		case trace.KindJob:
			haveJob = true
			ix.jobStart, ix.jobEnd = e.TS, e.TS+e.Dur
		case trace.KindWaitMap:
			k := nodeTask{e.Node, e.Task}
			ix.waitMapBy[k] = append(ix.waitMapBy[k], span(e))
		case trace.KindShuffleFetch:
			ix.fetchBy[at] = append(ix.fetchBy[at], span(e))
		case trace.KindWaitFabric:
			ix.fabricBy[at] = append(ix.fabricBy[at], span(e))
		case trace.KindWaitRetry:
			ix.retryBy[at] = append(ix.retryBy[at], span(e))
		case trace.KindWaitQueue:
			ix.queueBy[at] = append(ix.queueBy[at], e)
		}
	}
	if !haveJob {
		ix.jobStart, ix.jobEnd = minTS, maxEnd
	}
	// Map-phase barrier: the last map-task end (any attempt).
	ix.mapEnd = ix.jobStart
	for _, m := range ix.kind[trace.KindMapTask] {
		ix.mapEnd = max(ix.mapEnd, m.TS+m.Dur)
	}
	ix.mapEnd = min(ix.mapEnd, ix.jobEnd)
	// Source node per map task (last-ending attempt wins, matching the
	// output snapshot reduce attempts actually read).
	srcNode := make(map[int32]int32)
	srcEnd := make(map[int32]int64)
	for _, m := range ix.kind[trace.KindMapTask] {
		if end := m.TS + m.Dur; end >= srcEnd[m.Task] {
			srcEnd[m.Task] = end
			srcNode[m.Task] = m.Node
		}
	}
	for _, cp := range ix.kind[trace.KindShuffleCopy] {
		ix.copyByNode[cp.Node] = append(ix.copyByNode[cp.Node], span(cp))
		if sn, ok := srcNode[cp.Task]; ok && sn != cp.Node {
			ix.copyByNode[sn] = append(ix.copyByNode[sn], span(cp))
		}
	}
	return ix
}

// ---------------------------------------------------------------------
// Critical-path construction.

// mapChain walks the map-phase critical chain backwards from the barrier:
// the last-ending map attempt, then on the same (node, slot) the attempt
// that ended just before it started, until the job start. Gaps between
// chained attempts (scheduling, split handoff) become scheduler steps.
// The returned steps run forward in time and cover [0, MapEnd] exactly.
func (ix *index) mapChain() []Step {
	maps := ix.kind[trace.KindMapTask]
	if len(maps) == 0 {
		if ix.mapEnd > ix.jobStart {
			return []Step{ix.gapStep(ix.jobStart, ix.mapEnd, CauseScheduler)}
		}
		return nil
	}
	// Last-ending map attempt seeds the chain.
	cur := maps[0]
	for _, m := range maps[1:] {
		if m.TS+m.Dur > cur.TS+cur.Dur {
			cur = m
		}
	}
	var rev []Step
	// Barrier drain: between the chain head's end and the true barrier
	// (only non-zero when another slot's task ended later — the chain
	// head IS the max, so this is zero by construction).
	for i := 0; i <= len(maps); i++ {
		rev = append(rev, ix.taskStep(cur, ix.decomposeMap(cur)))
		// Predecessor on the same slot: latest attempt ending at or
		// before cur's start (plus chaining slack).
		var prev *trace.Event
		for j := range maps {
			m := &maps[j]
			if m.Node != cur.Node || m.Slot != cur.Slot {
				continue
			}
			if m.TS+m.Dur > cur.TS+epsNS || (m.TS == cur.TS && m.Dur == cur.Dur) {
				continue
			}
			if prev == nil || m.TS+m.Dur > prev.TS+prev.Dur {
				prev = m
			}
		}
		if prev == nil {
			break
		}
		if gap := cur.TS - (prev.TS + prev.Dur); gap > 0 {
			rev = append(rev, ix.gapStep(prev.TS+prev.Dur, cur.TS, CauseScheduler))
		}
		cur = *prev
	}
	// Head gap back to the job start.
	if cur.TS > ix.jobStart {
		rev = append(rev, ix.gapStep(ix.jobStart, cur.TS, CauseScheduler))
	}
	// Reverse into forward time order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// reduceChain covers [MapEnd, JobWall]: phase turnover, the critical
// reduce attempt's queue wait, the attempt itself, and the barrier drain
// to the job end.
func (ix *index) reduceChain() []Step {
	reduces := ix.kind[trace.KindReduceTask]
	if len(reduces) == 0 {
		if ix.jobEnd > ix.mapEnd {
			return []Step{ix.gapStep(ix.mapEnd, ix.jobEnd, CauseScheduler)}
		}
		return nil
	}
	crit := reduces[0]
	for _, rt := range reduces[1:] {
		if rt.TS+rt.Dur > crit.TS+crit.Dur {
			crit = rt
		}
	}
	// Queue wait is the attempt's recorded wait-queue span, the latest
	// one ending by its start; an attempt that waited no time recorded
	// none, and the whole gap since the barrier is scheduler slack.
	queues := ix.queueBy[attemptKey{crit.Node, crit.Task, crit.Slot}]
	var queueSpan *trace.Event
	for i := range queues {
		q := &queues[i]
		if q.TS+q.Dur <= crit.TS+epsNS && (queueSpan == nil || q.TS+q.Dur > queueSpan.TS+queueSpan.Dur) {
			queueSpan = q
		}
	}
	qStart := crit.TS
	if queueSpan != nil {
		qStart = min(max(queueSpan.TS, ix.mapEnd), crit.TS)
	}
	var steps []Step
	if qStart > ix.mapEnd {
		steps = append(steps, ix.gapStep(ix.mapEnd, qStart, CauseScheduler))
	}
	if queueSpan != nil && qStart < crit.TS {
		st := ix.gapStep(qStart, crit.TS, CauseQueueWait)
		st.Event, st.Synthetic = *queueSpan, false
		steps = append(steps, st)
	}
	steps = append(steps, ix.taskStep(crit, ix.decomposeReduce(crit)))
	if end := crit.TS + crit.Dur; end < ix.jobEnd {
		steps = append(steps, ix.gapStep(end, ix.jobEnd, CauseScheduler))
	}
	return steps
}

// taskStep wraps a decomposed task span as a critical-path step.
func (ix *index) taskStep(e trace.Event, blame [NumCauses]time.Duration) Step {
	return Step{
		Event: e,
		Start: time.Duration(e.TS - ix.jobStart),
		End:   time.Duration(e.TS + e.Dur - ix.jobStart),
		Blame: blame,
	}
}

// gapStep makes a synthetic step blaming [lo, hi) entirely on cause.
func (ix *index) gapStep(lo, hi int64, cause Cause) Step {
	s := Step{
		Synthetic: true,
		Start:     time.Duration(lo - ix.jobStart),
		End:       time.Duration(hi - ix.jobStart),
	}
	s.Blame[cause] = time.Duration(hi - lo)
	return s
}

// decomposeMap splits one map-task span by cause: wait-map coverage is
// spill/sort pressure, remaining overlap with shuffle-copy activity
// against the task's node is copier steal, and the rest is map compute.
// The causes sum to the span duration exactly.
func (ix *index) decomposeMap(m trace.Event) [NumCauses]time.Duration {
	var blame [NumCauses]time.Duration
	lo, hi := m.TS, m.TS+m.Dur
	waits := normalize(clip(ix.waitMapBy[nodeTask{m.Node, m.Task}], lo, hi))
	steal := subtract(normalize(clip(ix.copyByNode[m.Node], lo, hi)), waits)
	blame[CauseSpillSort] = time.Duration(total(waits))
	blame[CauseCopierSteal] = time.Duration(total(steal))
	blame[CauseMapCompute] = max(0, time.Duration(hi-lo)-blame[CauseSpillSort]-blame[CauseCopierSteal])
	return blame
}

// decomposeReduce splits one reduce-task span by cause: fabric waits,
// retry backoff, remaining shuffle-fetch coverage (segment open/read),
// and the compute remainder (merge pulls, user reduce, output I/O). The
// causes sum to the span duration exactly.
func (ix *index) decomposeReduce(rt trace.Event) [NumCauses]time.Duration {
	var blame [NumCauses]time.Duration
	lo, hi := rt.TS, rt.TS+rt.Dur
	k := attemptKey{rt.Node, rt.Task, rt.Slot}
	fabric := normalize(clip(ix.fabricBy[k], lo, hi))
	retry := subtract(normalize(clip(ix.retryBy[k], lo, hi)), fabric)
	fetch := subtract(subtract(normalize(clip(ix.fetchBy[k], lo, hi)), fabric), retry)
	blame[CauseFabricWait] = time.Duration(total(fabric))
	blame[CauseFetchRetry] = time.Duration(total(retry))
	blame[CauseShuffleIO] = time.Duration(total(fetch))
	blame[CauseReduceCompute] = max(0, time.Duration(hi-lo)-blame[CauseFabricWait]-blame[CauseFetchRetry]-blame[CauseShuffleIO])
	return blame
}

// ---------------------------------------------------------------------
// Utilization timelines.

// waitKind reports whether k records blocked (idle) time rather than
// occupancy. Fabric waits count as busy I/O: the lane is occupied moving
// bytes, which is Table II's accounting too.
func waitKind(k trace.Kind) bool {
	switch k {
	case trace.KindWaitMap, trace.KindWaitSupport, trace.KindWaitRetry, trace.KindWaitQueue:
		return true
	}
	return false
}

// timelines integrates busy coverage per (node, lane) into buckets.
func (ix *index) timelines(buckets int) ([]Timeline, time.Duration) {
	window := max(ix.jobEnd-ix.jobStart, 1)
	bw := max((window+int64(buckets)-1)/int64(buckets), 1)

	type slotKey struct {
		node int32
		lane trace.Lane
		slot int32
	}
	occ := make(map[slotKey][]iv)
	wai := make(map[slotKey][]iv)
	for _, e := range ix.spans {
		if e.Node < 0 || e.Kind == trace.KindJob {
			continue
		}
		k := slotKey{e.Node, e.Lane, e.Slot}
		if waitKind(e.Kind) {
			wai[k] = append(wai[k], span(e))
		} else {
			occ[k] = append(occ[k], span(e))
		}
	}
	type laneKey struct {
		node int32
		lane trace.Lane
	}
	rows := make(map[laneKey]*Timeline)
	slotsSeen := make(map[laneKey]map[int32]bool)
	keys := make(map[slotKey]bool)
	for k := range occ {
		keys[k] = true
	}
	for k := range wai {
		keys[k] = true
	}
	for k := range keys {
		lk := laneKey{k.node, k.lane}
		row := rows[lk]
		if row == nil {
			row = &Timeline{Node: int(k.node), Lane: k.lane, Busy: make([]float64, buckets)}
			rows[lk] = row
			slotsSeen[lk] = make(map[int32]bool)
		}
		slotsSeen[lk][k.slot] = true
		occU := normalize(clip(occ[k], ix.jobStart, ix.jobEnd))
		waiU := normalize(clip(wai[k], ix.jobStart, ix.jobEnd))
		busy := subtract(occU, waiU)
		row.OccupiedNS += time.Duration(total(occU))
		row.WaitNS += time.Duration(total(waiU))
		row.BusyNS += time.Duration(total(busy))
		for _, b := range busy {
			loB := int((b.lo - ix.jobStart) / bw)
			hiB := int((b.hi - 1 - ix.jobStart) / bw)
			for bi := loB; bi <= hiB && bi < buckets; bi++ {
				if bi < 0 {
					continue
				}
				blo := ix.jobStart + int64(bi)*bw
				bhi := blo + bw
				row.Busy[bi] += float64(overlap(b, iv{blo, bhi}))
			}
		}
	}
	out := make([]Timeline, 0, len(rows))
	for lk, row := range rows {
		row.Slots = len(slotsSeen[lk])
		den := float64(bw) * float64(row.Slots)
		for i := range row.Busy {
			row.Busy[i] = min(row.Busy[i]/den, 1)
		}
		out = append(out, *row)
	}
	slices.SortFunc(out, func(a, b Timeline) int {
		if c := cmp.Compare(a.Node, b.Node); c != 0 {
			return c
		}
		return cmp.Compare(a.Lane, b.Lane)
	})
	return out, time.Duration(bw)
}

// ---------------------------------------------------------------------
// Interval arithmetic. Intervals are half-open [lo, hi) nanosecond pairs.

type iv struct{ lo, hi int64 }

// span returns a span's extent as an interval.
func span(e trace.Event) iv { return iv{e.TS, e.TS + e.Dur} }

// clip clips intervals to [lo, hi) into a new slice, dropping any left
// empty.
func clip(ivs []iv, lo, hi int64) []iv {
	out := make([]iv, 0, len(ivs))
	for _, in := range ivs {
		if a, b := max(in.lo, lo), min(in.hi, hi); b > a {
			out = append(out, iv{a, b})
		}
	}
	return out
}

// normalize sorts and merges intervals into a disjoint ascending set.
func normalize(ivs []iv) []iv {
	if len(ivs) <= 1 {
		return ivs
	}
	slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
	out := ivs[:1]
	for _, in := range ivs[1:] {
		last := &out[len(out)-1]
		if in.lo <= last.hi {
			if in.hi > last.hi {
				last.hi = in.hi
			}
		} else {
			out = append(out, in)
		}
	}
	return out
}

// subtract removes b's coverage from a. Both must be normalized; the
// result is normalized.
func subtract(a, b []iv) []iv {
	if len(a) == 0 || len(b) == 0 {
		return a
	}
	var out []iv
	j := 0
	for _, in := range a {
		lo := in.lo
		for j < len(b) && b[j].hi <= lo {
			j++
		}
		k := j
		for k < len(b) && b[k].lo < in.hi {
			if b[k].lo > lo {
				out = append(out, iv{lo, b[k].lo})
			}
			if b[k].hi > lo {
				lo = b[k].hi
			}
			k++
		}
		if lo < in.hi {
			out = append(out, iv{lo, in.hi})
		}
	}
	return out
}

// total sums interval lengths.
func total(ivs []iv) int64 {
	var sum int64
	for _, in := range ivs {
		sum += in.hi - in.lo
	}
	return sum
}

// overlap returns the length of a ∩ b.
func overlap(a, b iv) int64 { return max(0, min(a.hi, b.hi)-max(a.lo, b.lo)) }
