package trace

import (
	"bytes"
	"os"
	"reflect"
	"testing"
)

// readExampleEvents parses the committed example trace artifact.
func readExampleEvents(t *testing.T) []Event {
	t.Helper()
	data, err := os.ReadFile(examplePath)
	if err != nil {
		t.Fatalf("reading committed example trace: %v", err)
	}
	events, err := ParseJSON(data)
	if err != nil {
		t.Fatalf("parsing committed example trace: %v", err)
	}
	return events
}

// TestParseJSONRoundTrip pins ParseJSON as WriteJSON's inverse: a written
// trace parses back to the same events. Microsecond export precision is
// lossless here because every nanosecond value divides into a float64
// exactly at job-scale magnitudes.
func TestParseJSONRoundTrip(t *testing.T) {
	events := []Event{
		{TS: 0, Dur: 5_000_000, Kind: KindJob, Lane: LaneScheduler, Node: -1, Task: -1},
		{TS: 1_000, Dur: 2_000_000, Records: 120, Bytes: 4096, Arg: 1, Kind: KindMapTask, Lane: LaneMap, Node: 0, Task: 3, Slot: 1},
		{TS: 5_500, Dur: 100_000, Kind: KindSpill, Lane: LaneSupport, Node: 0, Task: 3, Slot: 1},
		{TS: 8_000, Dur: 12_345, Kind: KindWaitFabric, Lane: LaneReduce, Node: 1, Task: 2, Slot: 0},
		{TS: 9_001, Dur: 999, Kind: KindWaitRetry, Lane: LaneReduce, Node: 1, Task: 2, Slot: 0},
		{TS: 9_500, Dur: 1, Kind: KindWaitQueue, Lane: LaneReduce, Node: 3, Task: 0, Slot: 2},
		{TS: 10_000, Arg: 42, Kind: KindWorkSteal, Lane: LaneScheduler, Node: 2, Task: 7},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ParseJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("parsed %d events, want %d", len(got), len(events))
	}
	// ParseJSON returns timestamp order; the fixture is already sorted.
	for i := range events {
		if !reflect.DeepEqual(got[i], events[i]) {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], events[i])
		}
	}
}

// TestParseJSONSkipsUnknown checks forward compatibility: metadata rows,
// unknown span names and unknown phases are skipped, not errors.
func TestParseJSONSkipsUnknown(t *testing.T) {
	doc := []byte(`{"traceEvents":[
		{"name":"process_name","ph":"M","pid":0,"args":{"name":"cluster"}},
		{"name":"map-task","ph":"X","ts":1,"dur":2,"pid":1,"tid":1,"cat":"map","args":{"task":5}},
		{"name":"kind-from-the-future","ph":"X","ts":1,"dur":2,"pid":1,"tid":1,"cat":"map"},
		{"name":"map-task","ph":"B","ts":1,"pid":1,"tid":1,"cat":"map"},
		{"name":"map-task","ph":"X","ts":1,"dur":2,"pid":1,"tid":1,"cat":"lane-from-the-future"}
	]}`)
	events, err := ParseJSON(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Kind != KindMapTask || events[0].Task != 5 || events[0].Node != 0 {
		t.Fatalf("got %+v, want one map-task on node 0 task 5", events)
	}
	if _, err := ParseJSON([]byte(`{"wrong":true}`)); err == nil {
		t.Fatal("document without traceEvents should error")
	}
	if _, err := ParseJSON([]byte(`not json`)); err == nil {
		t.Fatal("malformed JSON should error")
	}
}

// TestParseJSONExampleTrace parses the committed example artifact — the
// same file the golden critical-path test analyzes — and cross-checks
// DeriveIdle over the parsed events against parsing expectations: spans
// present, job span found, waits non-zero.
func TestParseJSONExampleTrace(t *testing.T) {
	events := readExampleEvents(t)
	var jobs, maps int
	for _, e := range events {
		switch e.Kind {
		case KindJob:
			jobs++
		case KindMapTask:
			maps++
		}
	}
	if jobs != 1 || maps == 0 {
		t.Fatalf("example trace parsed to %d job spans and %d map tasks", jobs, maps)
	}
	idle := DeriveIdle(events)
	if idle.MapTaskWall <= 0 || idle.MapWait <= 0 {
		t.Fatalf("example trace idle accounting empty: %+v", idle)
	}
}
