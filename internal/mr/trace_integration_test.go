package mr_test

import (
	"bytes"
	"math"
	"testing"

	"mrtext/internal/apps"
	"mrtext/internal/metrics"
	"mrtext/internal/mr"
	"mrtext/internal/trace"
	"mrtext/internal/trace/critpath"
)

// TestTraceCrossChecksMetrics runs a traced wordcount with a small spill
// buffer (forcing many spills and real producer/consumer blocking) and
// asserts the trace is a faithful second account of the run: span counts
// match the job shape, map and support lanes genuinely overlap, and the
// Table II idle fractions derived from wait spans agree with the
// metrics-based Result accounting within 5%.
func TestTraceCrossChecksMetrics(t *testing.T) {
	c, corpus := newTextCluster(t, 3, 1<<20)

	tr := trace.New(1 << 16)
	job := apps.WordCount(corpus)
	job.SpillBufferBytes = 64 << 10
	job.Trace = tr

	res, err := mr.Run(c, job)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("tracer dropped %d events; ring too small for the test job", d)
	}

	events := tr.Events()
	spans := make(map[trace.Kind]int)
	for _, ev := range events {
		if !ev.Kind.Instant() {
			spans[ev.Kind]++
		}
	}
	if spans[trace.KindJob] != 1 {
		t.Errorf("job spans: got %d, want 1", spans[trace.KindJob])
	}
	if spans[trace.KindMapTask] != res.MapTasks {
		t.Errorf("map-task spans: got %d, want %d", spans[trace.KindMapTask], res.MapTasks)
	}
	if spans[trace.KindReduceTask] != res.ReduceTasks {
		t.Errorf("reduce-task spans: got %d, want %d", spans[trace.KindReduceTask], res.ReduceTasks)
	}
	if spans[trace.KindShuffleFetch] != res.ReduceTasks {
		t.Errorf("shuffle-fetch spans: got %d, want %d", spans[trace.KindShuffleFetch], res.ReduceTasks)
	}
	if spans[trace.KindSpill] == 0 || spans[trace.KindSort] == 0 {
		t.Errorf("expected spill and sort spans, got %d and %d", spans[trace.KindSpill], spans[trace.KindSort])
	}
	if spans[trace.KindSpill] != spans[trace.KindSort] {
		t.Errorf("each spill sorts exactly once: %d spills vs %d sorts", spans[trace.KindSpill], spans[trace.KindSort])
	}
	// A copier ends the span of every segment it stages with the segment's
	// bytes (a copy it does not keep ends with none), so the spans carry
	// exactly the staged bytes.
	var copyBytes int64
	for _, ev := range events {
		if ev.Kind == trace.KindShuffleCopy {
			copyBytes += ev.Bytes
		}
	}
	if staged := res.Agg.Counters[metrics.CtrShuffleStagedBytes]; staged == 0 || copyBytes != staged {
		t.Errorf("shuffle-copy spans carry %d bytes for %d staged; want equal and non-zero", copyBytes, staged)
	}

	// The support goroutine's spill work must overlap its own task's map
	// span: that concurrency is the whole point of the two-lane design.
	mapSpan := make(map[int]trace.Event)
	for _, ev := range events {
		if ev.Kind == trace.KindMapTask {
			mapSpan[int(ev.Task)] = ev
		}
	}
	overlaps := 0
	for _, ev := range events {
		if ev.Kind != trace.KindSpill {
			continue
		}
		m, ok := mapSpan[int(ev.Task)]
		if !ok {
			t.Fatalf("spill span for task %d without a map-task span", ev.Task)
		}
		if ev.Lane != trace.LaneSupport {
			t.Errorf("spill span on lane %v, want support", ev.Lane)
		}
		if ev.TS < m.TS+m.Dur && ev.TS+ev.Dur > m.TS {
			overlaps++
		}
	}
	if overlaps == 0 {
		t.Error("no spill span overlaps its map-task span: support lane never ran concurrently")
	}

	// Table II cross-check: wait spans reuse the exact durations fed to
	// the metrics accumulators, so the derived fractions agree closely.
	idle := trace.DeriveIdle(events)
	checkClose := func(name string, got, want float64) {
		t.Helper()
		tol := 0.05*math.Max(got, want) + 1e-3
		if math.Abs(got-want) > tol {
			t.Errorf("%s: trace-derived %.4f vs metrics %.4f (tolerance %.4f)", name, got, want, tol)
		}
	}
	checkClose("map idle fraction", idle.MapIdleFraction(), res.MapIdleFraction())
	checkClose("support idle fraction", idle.SupportIdleFraction(), res.SupportIdleFraction())

	// Placement counters cover every map task.
	if res.LocalMapTasks+res.StolenMapTasks != res.MapTasks {
		t.Errorf("placement: %d local + %d stolen != %d map tasks",
			res.LocalMapTasks, res.StolenMapTasks, res.MapTasks)
	}

	// Reduce reports carry shuffle volume and queue-wait accounting.
	for _, rep := range res.Tasks {
		if rep.Kind != "reduce" {
			continue
		}
		if rep.ShuffleBytes <= 0 {
			t.Errorf("reduce %d: ShuffleBytes = %d, want > 0", rep.Index, rep.ShuffleBytes)
		}
		if rep.QueueWait < 0 {
			t.Errorf("reduce %d: negative QueueWait %v", rep.Index, rep.QueueWait)
		}
	}

	// Every reduce attempt's queue wait is also a wait-queue span, and
	// the two accounts agree in total.
	var queueSpans int
	var queueSpanTotal, queueReportTotal float64
	for _, ev := range events {
		if ev.Kind == trace.KindWaitQueue {
			queueSpans++
			queueSpanTotal += float64(ev.Dur)
		}
	}
	for _, rep := range res.Tasks {
		if rep.Kind == "reduce" {
			queueReportTotal += float64(rep.QueueWait)
		}
	}
	if queueSpans == 0 {
		t.Error("no wait-queue spans recorded")
	}
	checkClose("queue wait total (ms)", queueSpanTotal/1e6, queueReportTotal/1e6)

	// Blame-report cross-check: the critical-path analyzer's phase walls
	// and idle fractions are a third account of the same run, and must
	// agree with the Result metrics within the same 5% tolerance.
	report, err := critpath.Analyze(events)
	if err != nil {
		t.Fatalf("critpath.Analyze: %v", err)
	}
	checkClose("critpath job wall (ms)", float64(report.JobWall)/1e6, float64(res.Wall)/1e6)
	checkClose("critpath map wall (ms)", float64(report.Map.Wall)/1e6, float64(res.MapWall)/1e6)
	// The analyzer's reduce phase is everything after the last map commit,
	// up to the end of the job span; Result.ReduceWall is the lifetime of
	// the reduce worker pool, which starts a phase turnover later and ends
	// before the post-phase cleanup. The account of the same two instants
	// is the job wall less the map wall, and as the difference of two
	// walls checked above it agrees within their two tolerances added — a
	// few milliseconds, where 5% of a 2 ms phase is less than one
	// goroutine wake-up.
	if report.Map.Wall+report.Reduce.Wall != report.JobWall {
		t.Errorf("critpath phases do not tile the job: map %v + reduce %v != %v", report.Map.Wall, report.Reduce.Wall, report.JobWall)
	}
	if got, want := report.Reduce.Wall, res.Wall-res.MapWall; math.Abs(float64(got-want)) > 0.05*float64(res.Wall+res.MapWall) {
		t.Errorf("critpath reduce wall %v vs job wall less map wall %v", got, want)
	}
	// The timelines' idle fractions: map-lane and support-lane wait
	// coverage over map-lane occupied coverage.
	var mapWait, supportWait, mapOccupied float64
	for _, tl := range report.Timelines {
		switch tl.Lane {
		case trace.LaneMap:
			mapWait += float64(tl.WaitNS)
			mapOccupied += float64(tl.OccupiedNS)
		case trace.LaneSupport:
			supportWait += float64(tl.WaitNS)
		}
	}
	checkClose("critpath map idle fraction", mapWait/mapOccupied, res.MapIdleFraction())
	checkClose("critpath support idle fraction", supportWait/mapOccupied, res.SupportIdleFraction())
	for _, phase := range []struct {
		name string
		pb   critpath.PhaseBlame
	}{{"map", report.Map}, {"reduce", report.Reduce}} {
		var sum float64
		for c := critpath.Cause(0); c < critpath.NumCauses; c++ {
			sum += float64(phase.pb.Causes[c])
		}
		checkClose("critpath "+phase.name+" blame sum (ms)", sum/1e6, float64(phase.pb.Wall)/1e6)
	}

	// The exporter round-trips through the reader.
	var buf bytes.Buffer
	if err := trace.WriteJSON(&buf, events); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if _, err := trace.ParseJSON(buf.Bytes()); err != nil {
		t.Fatalf("exported trace does not parse: %v", err)
	}
}
