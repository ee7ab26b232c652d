package critpath

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"mrtext/internal/trace"
)

// examplePath is the committed example trace the golden test pins.
const examplePath = "../../../examples/traces/syntext-small.trace.json"

func readExample(t *testing.T) []trace.Event {
	t.Helper()
	data, err := os.ReadFile(examplePath)
	if err != nil {
		t.Fatalf("reading committed example trace: %v", err)
	}
	events, err := trace.ParseJSON(data)
	if err != nil {
		t.Fatalf("parsing committed example trace: %v", err)
	}
	return events
}

// TestGoldenExampleTrace is the golden critical-path test on the
// committed artifact: structural facts about the path, blame totals that
// reconcile with the phase walls, agreement between the timeline idle
// fractions and the wait-span accounting, and the absence of causes the
// trace cannot contain (it was recorded before shuffle-copy fan-out
// spans existed in it — no copier steal, no staging backpressure).
func TestGoldenExampleTrace(t *testing.T) {
	events := readExample(t)
	r, err := Analyze(events, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// The job span bounds everything.
	var jobSpan trace.Event
	for _, e := range events {
		if e.Kind == trace.KindJob {
			jobSpan = e
		}
	}
	if r.JobWall != jobSpan.Duration() {
		t.Errorf("JobWall %v != job span %v", r.JobWall, jobSpan.Duration())
	}
	if r.MapEnd <= 0 || r.MapEnd >= r.JobWall {
		t.Fatalf("MapEnd %v outside (0, %v)", r.MapEnd, r.JobWall)
	}

	// The path covers [0, JobWall] in order with no gaps.
	if len(r.Path) == 0 {
		t.Fatal("empty critical path")
	}
	if r.Path[0].Start != 0 {
		t.Errorf("path starts at %v, want 0", r.Path[0].Start)
	}
	if got := r.Path[len(r.Path)-1].End; got != r.JobWall {
		t.Errorf("path ends at %v, want %v", got, r.JobWall)
	}
	for i := 1; i < len(r.Path); i++ {
		gap := r.Path[i].Start - r.Path[i-1].End
		if gap > 0 || gap < -time.Duration(epsNS) {
			t.Errorf("path step %d starts at %v, previous ended %v", i, r.Path[i].Start, r.Path[i-1].End)
		}
	}

	// Blame sums reconcile with phase walls (chaining slack only).
	checkSum := func(name string, p PhaseBlame) {
		var sum time.Duration
		for c := Cause(0); c < NumCauses; c++ {
			sum += p.Causes[c]
		}
		if diff := sum - p.Wall; diff < -time.Duration(epsNS) || diff > time.Duration(epsNS) {
			t.Errorf("%s blame sums to %v, wall %v", name, sum, p.Wall)
		}
	}
	checkSum("map", r.Map)
	checkSum("reduce", r.Reduce)

	// The dominant map-phase causes must be present; causes the trace
	// cannot contain must be zero.
	if r.Map.Causes[CauseMapCompute] <= 0 {
		t.Error("map phase shows no map-compute")
	}
	if r.Map.Causes[CauseSpillSort] <= 0 {
		t.Error("map phase shows no spill-sort pressure (trace has wait-map spans)")
	}
	for _, c := range []Cause{CauseCopierSteal, CauseFabricWait, CauseFetchRetry} {
		if r.Map.Causes[c] != 0 || r.Reduce.Causes[c] != 0 {
			t.Errorf("cause %s nonzero on a trace with no such spans", c)
		}
	}
	if r.Reduce.Causes[CauseReduceCompute] <= 0 {
		t.Error("reduce phase shows no reduce-compute")
	}
	if r.Reduce.Causes[CauseShuffleIO] <= 0 {
		t.Error("reduce phase shows no shuffle-io (trace has shuffle-fetch spans)")
	}

	// The map chain is genuinely a chain: multiple map steps on one
	// (node, slot) track, in time order.
	var mapSteps []Step
	for _, s := range r.Path {
		if !s.Synthetic && s.Event.Kind == trace.KindMapTask {
			mapSteps = append(mapSteps, s)
		}
	}
	if len(mapSteps) < 2 {
		t.Fatalf("map chain has %d task steps, want >= 2 (the example runs two waves)", len(mapSteps))
	}
	for i := 1; i < len(mapSteps); i++ {
		if mapSteps[i].Event.Node != mapSteps[0].Event.Node || mapSteps[i].Event.Slot != mapSteps[0].Event.Slot {
			t.Errorf("map chain hops tracks: step %d on n%d s%d, chain on n%d s%d",
				i, mapSteps[i].Event.Node, mapSteps[i].Event.Slot, mapSteps[0].Event.Node, mapSteps[0].Event.Slot)
		}
	}

	// Exactly one reduce task step, and it is the last-finishing one.
	var reduceSteps []Step
	for _, s := range r.Path {
		if !s.Synthetic && s.Event.Kind == trace.KindReduceTask {
			reduceSteps = append(reduceSteps, s)
		}
	}
	if len(reduceSteps) != 1 {
		t.Fatalf("path has %d reduce steps, want 1", len(reduceSteps))
	}
	for _, e := range events {
		if e.Kind == trace.KindReduceTask && e.TS+e.Dur > reduceSteps[0].Event.TS+reduceSteps[0].Event.Dur {
			t.Errorf("critical reduce step is not the last-finishing attempt")
		}
	}

	// Timeline idle fractions agree with DeriveIdle — the generalized
	// Table II cross-check.
	idle := trace.DeriveIdle(events)
	if got, want := r.MapLaneIdleFraction(), idle.MapIdleFraction(); math.Abs(got-want) > 0.005 {
		t.Errorf("timeline map idle %.4f, DeriveIdle %.4f", got, want)
	}
	if got, want := r.SupportLaneIdleFraction(), idle.SupportIdleFraction(); math.Abs(got-want) > 0.005 {
		t.Errorf("timeline support idle %.4f, DeriveIdle %.4f", got, want)
	}

	// Timelines: all three example nodes present with map+support lanes,
	// sampled busy integral consistent with the exact BusyNS integral.
	lanes := make(map[int]map[trace.Lane]Timeline)
	for _, tl := range r.Timelines {
		if lanes[tl.Node] == nil {
			lanes[tl.Node] = make(map[trace.Lane]Timeline)
		}
		lanes[tl.Node][tl.Lane] = tl
		if len(tl.Busy) != r.Buckets {
			t.Fatalf("timeline n%d %s has %d buckets, want %d", tl.Node, tl.Lane, len(tl.Busy), r.Buckets)
		}
		var integral float64
		for _, f := range tl.Busy {
			integral += f * float64(r.BucketWidth) * float64(tl.Slots)
		}
		if tl.BusyNS > 0 {
			if rel := math.Abs(integral-float64(tl.BusyNS)) / float64(tl.BusyNS); rel > 0.02 {
				t.Errorf("timeline n%d %s sampled integral %.0f vs exact %d (rel %.3f)",
					tl.Node, tl.Lane, integral, int64(tl.BusyNS), rel)
			}
		}
	}
	// The example run put all map work on node 2 and spread reduce tasks
	// across nodes 0..2.
	if _, ok := lanes[2][trace.LaneMap]; !ok {
		t.Error("no map-lane timeline for node 2")
	}
	if _, ok := lanes[2][trace.LaneSupport]; !ok {
		t.Error("no support-lane timeline for node 2")
	}
	for node := 0; node < 3; node++ {
		if _, ok := lanes[node][trace.LaneReduce]; !ok {
			t.Errorf("no reduce-lane timeline for node %d", node)
		}
	}

	// PathEvents feeds the Gantt highlight: every entry is a real span.
	for _, e := range r.PathEvents() {
		if e.Dur <= 0 {
			t.Errorf("PathEvents contains zero-duration span %+v", e)
		}
	}

	// The rendered report carries the grep-stable blame lines.
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"critical path: job ", "blame[map] map-compute", "blame[reduce] reduce-compute", "utilization ("} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestAnalyzeSynthetic drives the decomposition on a hand-built trace
// where every blame quantity is known exactly, including the causes the
// committed example cannot exercise (copier steal, fabric wait, retry
// wait, queue wait).
func TestAnalyzeSynthetic(t *testing.T) {
	const msn = int64(time.Millisecond)
	events := []trace.Event{
		// Job: 0..100ms.
		{TS: 0, Dur: 100 * msn, Kind: trace.KindJob, Lane: trace.LaneScheduler, Node: -1, Task: -1},
		// Map wave on node 0 slot 0: task 0 at 0..20ms, task 1 at 22..50ms.
		{TS: 0, Dur: 20 * msn, Kind: trace.KindMapTask, Lane: trace.LaneMap, Node: 0, Task: 0, Slot: 0},
		{TS: 22 * msn, Dur: 28 * msn, Kind: trace.KindMapTask, Lane: trace.LaneMap, Node: 0, Task: 1, Slot: 0},
		// Task 1: 4ms spill-buffer wait, 6ms merge, copier overlap 30..40ms.
		{TS: 24 * msn, Dur: 4 * msn, Kind: trace.KindWaitMap, Lane: trace.LaneMap, Node: 0, Task: 1, Slot: 0},
		{TS: 44 * msn, Dur: 6 * msn, Kind: trace.KindMerge, Lane: trace.LaneMap, Node: 0, Task: 1, Slot: 0},
		// Copier staging onto node 0 (home), overlapping task 1.
		{TS: 30 * msn, Dur: 10 * msn, Kind: trace.KindShuffleCopy, Lane: trace.LaneReduce, Node: 0, Task: 0, Slot: 8},
		// Reduce: queue wait 50..55, task 55..95 with fetch 55..70
		// containing 5ms fabric and 2ms retry; another 3ms fabric later
		// during the merge stream.
		{TS: 50 * msn, Dur: 5 * msn, Kind: trace.KindWaitQueue, Lane: trace.LaneReduce, Node: 1, Task: 0, Slot: 0},
		{TS: 55 * msn, Dur: 40 * msn, Kind: trace.KindReduceTask, Lane: trace.LaneReduce, Node: 1, Task: 0, Slot: 0},
		{TS: 55 * msn, Dur: 15 * msn, Kind: trace.KindShuffleFetch, Lane: trace.LaneReduce, Node: 1, Task: 0, Slot: 0},
		{TS: 56 * msn, Dur: 5 * msn, Kind: trace.KindWaitFabric, Lane: trace.LaneReduce, Node: 1, Task: 0, Slot: 0},
		{TS: 62 * msn, Dur: 2 * msn, Kind: trace.KindWaitRetry, Lane: trace.LaneReduce, Node: 1, Task: 0, Slot: 0},
		{TS: 80 * msn, Dur: 3 * msn, Kind: trace.KindWaitFabric, Lane: trace.LaneReduce, Node: 1, Task: 0, Slot: 0},
	}
	r, err := Analyze(events, Options{Buckets: 20})
	if err != nil {
		t.Fatal(err)
	}
	if r.MapEnd != 50*time.Millisecond || r.JobWall != 100*time.Millisecond {
		t.Fatalf("phases: mapEnd %v jobWall %v", r.MapEnd, r.JobWall)
	}

	wantMap := map[Cause]time.Duration{
		CauseMapCompute:  20*time.Millisecond + (28-4-6-8)*time.Millisecond, // task 0 full + task 1 remainder
		CauseSpillSort:   (4 + 6) * time.Millisecond,
		CauseCopierSteal: 8 * time.Millisecond, // copy 30..40 clipped... fully inside task 1, minus nothing
		CauseScheduler:   2 * time.Millisecond, // gap 20..22
	}
	// Copy span 30..40ms does not overlap wait (24..28) or merge
	// (44..50), so steal is the full 10ms.
	wantMap[CauseCopierSteal] = 10 * time.Millisecond
	wantMap[CauseMapCompute] = 20*time.Millisecond + (28-4-6-10)*time.Millisecond
	for c := Cause(0); c < NumCauses; c++ {
		if got, want := r.Map.Causes[c], wantMap[c]; got != want {
			t.Errorf("map blame %s = %v, want %v", c, got, want)
		}
	}

	wantReduce := map[Cause]time.Duration{
		CauseQueueWait:     5 * time.Millisecond,
		CauseFabricWait:    8 * time.Millisecond,
		CauseFetchRetry:    2 * time.Millisecond,
		CauseShuffleIO:     8 * time.Millisecond,  // fetch 15 − fabric 5 − retry 2
		CauseReduceCompute: 22 * time.Millisecond, // 40 − 8 − 2 − 8
		CauseScheduler:     5 * time.Millisecond,  // tail 95..100
	}
	for c := Cause(0); c < NumCauses; c++ {
		if got, want := r.Reduce.Causes[c], wantReduce[c]; got != want {
			t.Errorf("reduce blame %s = %v, want %v", c, got, want)
		}
	}

	// Activity includes the queue wait no task span contains.
	if got := r.Activity[CauseQueueWait]; got != 5*time.Millisecond {
		t.Errorf("activity queue-wait %v, want 5ms", got)
	}

	// The queue-wait step carries the recorded span, not a synthetic gap.
	var sawQueue bool
	for _, s := range r.Path {
		if s.Blame[CauseQueueWait] > 0 {
			sawQueue = true
			if s.Synthetic || s.Event.Kind != trace.KindWaitQueue {
				t.Errorf("queue step not backed by the wait-queue span: %+v", s)
			}
		}
	}
	if !sawQueue {
		t.Error("no queue-wait step on the path")
	}
}

// TestAnalyzeErrors pins the failure modes.
func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze(nil, Options{}); err == nil {
		t.Error("empty trace should error")
	}
	only := []trace.Event{{TS: 1, Kind: trace.KindWorkSteal, Lane: trace.LaneScheduler, Node: 0}}
	if _, err := Analyze(only, Options{}); err == nil {
		t.Error("instants-only trace should error")
	}
}
