package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	s := tr.Start(KindMapTask, LaneMap, 0, 0, 0)
	s.End()
	s.EndCounts(1, 2)
	tr.Instant(KindWorkSteal, LaneScheduler, 0, 0, 0)
	tr.Complete(KindWaitMap, LaneMap, 0, 0, 0, time.Now(), time.Second)
	if tr.Events() != nil {
		t.Error("nil tracer returned events")
	}
	if tr.Dropped() != 0 {
		t.Error("nil tracer reported drops")
	}
}

func TestSpanRoundTrip(t *testing.T) {
	tr := New(1024)
	s := tr.Start(KindSort, LaneSupport, 3, 7, 1)
	time.Sleep(time.Millisecond)
	s.EndCounts(100, 2048)
	tr.Instant(KindSpillHandoff, LaneSupport, 3, 7, 4096)

	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	sp := evs[0]
	if sp.Kind != KindSort || sp.Lane != LaneSupport || sp.Node != 3 || sp.Task != 7 || sp.Slot != 1 {
		t.Errorf("span identity wrong: %+v", sp)
	}
	if sp.Duration() < time.Millisecond {
		t.Errorf("span duration %v, want >= 1ms", sp.Duration())
	}
	if sp.Records != 100 || sp.Bytes != 2048 {
		t.Errorf("span counters wrong: %+v", sp)
	}
	in := evs[1]
	if in.Kind != KindSpillHandoff || !in.Kind.Instant() || in.Arg != 4096 {
		t.Errorf("instant wrong: %+v", in)
	}
	if in.TS < sp.TS {
		t.Error("events not in timestamp order")
	}
}

func TestCompleteMatchesCallerClock(t *testing.T) {
	tr := New(64)
	start := time.Now()
	tr.Complete(KindWaitMap, LaneMap, 1, 2, 0, start, 123*time.Millisecond)
	tr.Complete(KindWaitSupport, LaneSupport, 1, 2, 0, start, 0) // dropped: no duration
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("events = %d, want 1 (zero-duration completes are dropped)", len(evs))
	}
	if evs[0].Duration() != 123*time.Millisecond {
		t.Errorf("duration %v, want exactly 123ms", evs[0].Duration())
	}
}

func TestRingOverwriteCountsDrops(t *testing.T) {
	tr := New(numStripes) // one event per stripe
	for i := 0; i < 100; i++ {
		tr.Instant(KindWorkSteal, LaneScheduler, 0, i, 0)
	}
	if tr.Dropped() == 0 {
		t.Error("expected drops after overflowing a 1-slot stripe")
	}
	evs := tr.Events()
	if len(evs) == 0 || len(evs) > numStripes {
		t.Errorf("events = %d, want (0, %d]", len(evs), numStripes)
	}
}

func TestConcurrentEmit(t *testing.T) {
	tr := New(1 << 14)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s := tr.Start(KindSpill, LaneSupport, g, i, 0)
				s.End()
			}
		}(g)
	}
	wg.Wait()
	if got := len(tr.Events()); got != 8*500 {
		t.Errorf("events = %d, want %d (dropped %d)", got, 8*500, tr.Dropped())
	}
}

func TestDeriveIdle(t *testing.T) {
	tr := New(256)
	base := time.Now()
	tr.Complete(KindMapTask, LaneMap, 0, 0, 0, base, 10*time.Second)
	tr.Complete(KindMapTask, LaneMap, 1, 1, 0, base, 10*time.Second)
	tr.Complete(KindWaitMap, LaneMap, 0, 0, 0, base, 2*time.Second)
	tr.Complete(KindWaitSupport, LaneSupport, 0, 0, 0, base, 5*time.Second)
	tr.Complete(KindReduceTask, LaneReduce, 0, 0, 0, base, time.Hour) // ignored

	r := DeriveIdle(tr.Events())
	if r.MapTaskWall != 20*time.Second {
		t.Errorf("MapTaskWall = %v", r.MapTaskWall)
	}
	if got := r.MapIdleFraction(); got != 0.1 {
		t.Errorf("MapIdleFraction = %v, want 0.1", got)
	}
	if got := r.SupportIdleFraction(); got != 0.25 {
		t.Errorf("SupportIdleFraction = %v, want 0.25", got)
	}
	var empty IdleReport
	if empty.MapIdleFraction() != 0 || empty.SupportIdleFraction() != 0 {
		t.Error("empty report fractions non-zero")
	}
}

func TestWriteJSONValidates(t *testing.T) {
	tr := New(1024)
	js := tr.Start(KindJob, LaneScheduler, -1, -1, 0)
	s := tr.Start(KindMapTask, LaneMap, 0, 0, 1)
	sub := tr.Start(KindSort, LaneSupport, 0, 0, 1)
	sub.EndCounts(10, 100)
	s.End()
	tr.Instant(KindSpillDecision, LaneSupport, 0, 0, 8000)
	js.End()

	var buf bytes.Buffer
	if err := WriteJSON(&buf, tr.Events()); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if _, err := ParseJSON(buf.Bytes()); err != nil {
		t.Fatalf("exported trace fails its own reader: %v", err)
	}

	// Structure: job span routes to pid 0, node spans to pid 1, and the
	// map/support lanes land on distinct tids.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("reparse: %v", err)
	}
	tids := map[string]float64{}
	var sawThreadName, sawProcessName bool
	for _, ev := range doc.TraceEvents {
		switch ev["name"] {
		case "job":
			if ev["pid"].(float64) != 0 {
				t.Errorf("job span pid = %v, want 0", ev["pid"])
			}
		case "map-task", "sort":
			tids[ev["name"].(string)] = ev["tid"].(float64)
		case "thread_name":
			sawThreadName = true
		case "process_name":
			sawProcessName = true
		}
	}
	if tids["map-task"] == tids["sort"] {
		t.Error("map and support lanes share a tid")
	}
	if !sawThreadName || !sawProcessName {
		t.Error("missing metadata rows")
	}
}

func TestGanttRendersTracks(t *testing.T) {
	tr := New(256)
	mt := tr.Start(KindMapTask, LaneMap, 0, 0, 0)
	sp := tr.Start(KindSpill, LaneSupport, 0, 0, 0)
	time.Sleep(2 * time.Millisecond)
	sp.End()
	mt.End()
	rt := tr.Start(KindReduceTask, LaneReduce, 1, 0, 0)
	rt.End()

	var buf bytes.Buffer
	if err := GanttMarked(&buf, tr.Events(), nil, 60); err != nil {
		t.Fatalf("gantt: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"n0 map/0", "n0 support/0", "n1 reduce/0", "legend:", "m", "S"} {
		if !strings.Contains(out, want) {
			t.Errorf("gantt output missing %q:\n%s", want, out)
		}
	}
	var empty bytes.Buffer
	if err := GanttMarked(&empty, nil, nil, 60); err != nil {
		t.Fatalf("gantt: %v", err)
	}
	if !strings.Contains(empty.String(), "no spans") {
		t.Error("empty gantt missing placeholder")
	}
}

func TestKindAndLaneNames(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "" || k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Error("out-of-range kind name")
	}
	for l := Lane(0); l < numLanes; l++ {
		if l.String() == "" || l.String() == "unknown" {
			t.Errorf("lane %d has no name", l)
		}
	}
	if Lane(200).String() != "unknown" {
		t.Error("out-of-range lane name")
	}
	spans := []Kind{KindJob, KindMapTask, KindSpill, KindSort, KindCombine, KindShuffleFetch, KindReduceTask, KindWaitMap, KindWaitSupport}
	for _, k := range spans {
		if k.Instant() {
			t.Errorf("%v classified as instant", k)
		}
	}
	for _, k := range []Kind{KindSpillHandoff, KindSpillDecision, KindFreqEviction, KindWorkSteal} {
		if !k.Instant() {
			t.Errorf("%v not classified as instant", k)
		}
	}
}
