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

// TestParseJSONEveryKindAndLane round-trips a span or instant of every
// kind on every lane through WriteJSON and ParseJSON, so a kind or lane
// without an export name, or with one the reader does not resolve back,
// fails here.
func TestParseJSONEveryKindAndLane(t *testing.T) {
	var events []Event
	for k := Kind(0); k < numKinds; k++ {
		for l := Lane(0); l < numLanes; l++ {
			e := Event{TS: int64(len(events)+1) * 1_000, Kind: k, Lane: l, Node: 2, Task: 5, Slot: 3}
			if k.Instant() {
				e.Arg = 9
			} else {
				e.Dur, e.Records, e.Bytes, e.Arg = 500, 7, 64, 1
			}
			events = append(events, e)
		}
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ParseJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("round trip of every kind and lane:\ngot  %+v\nwant %+v", got, events)
	}
}

// TestParseJSONSkipsUnknown checks forward and backward compatibility:
// metadata rows, and well-formed spans with an unknown name or lane, are
// skipped, not errors.
func TestParseJSONSkipsUnknown(t *testing.T) {
	doc := []byte(`{"traceEvents":[
		{"name":"process_name","ph":"M","pid":0,"args":{"name":"cluster"}},
		{"name":"map-task","ph":"X","ts":1,"dur":2,"pid":1,"tid":1,"cat":"map","args":{"task":5}},
		{"name":"kind-from-the-future","ph":"X","ts":1,"dur":2,"pid":1,"tid":1,"cat":"map"},
		{"name":"merge","ph":"X","ts":1,"dur":2,"pid":1,"tid":1,"cat":"map"},
		{"name":"map-task","ph":"X","ts":1,"dur":2,"pid":1,"tid":1,"cat":"lane-from-the-future"}
	]}`)
	events, err := ParseJSON(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Kind != KindMapTask || events[0].Task != 5 || events[0].Node != 0 {
		t.Fatalf("got %+v, want one map-task on node 0 task 5", events)
	}
}

// RejectedDocuments lists documents ParseJSON must refuse, one row per
// rule. It is exported to the external fuzz test, which seeds its corpus
// with every row.
var RejectedDocuments = []struct{ Name, Doc string }{
	{"not json", "}{"},
	{"no traceEvents", `{"foo": []}`},
	{"empty", `{"traceEvents": []}`},
	{"no name", `{"traceEvents": [{"ph":"i","ts":1,"pid":0,"tid":1}]}`},
	{"no ph", `{"traceEvents": [{"name":"x","ts":1,"pid":0,"tid":1}]}`},
	{"bad ph", `{"traceEvents": [{"name":"x","ph":"Q","ts":1,"pid":0,"tid":1}]}`},
	{"B phase", `{"traceEvents": [{"name":"map-task","ph":"B","ts":1,"pid":1,"tid":1,"cat":"map"}]}`},
	{"X without dur", `{"traceEvents": [{"name":"x","ph":"X","ts":1,"pid":0,"tid":1}]}`},
	{"negative dur", `{"traceEvents": [{"name":"map-task","ph":"X","ts":1,"dur":-5,"pid":1,"tid":1,"cat":"map"}]}`},
	{"X without ts", `{"traceEvents": [{"name":"x","ph":"X","dur":1,"pid":0,"tid":1}]}`},
	{"negative ts", `{"traceEvents": [{"name":"x","ph":"i","ts":-1,"pid":0,"tid":1}]}`},
	{"ts beyond int64 ns", `{"traceEvents": [{"name":"map-task","ph":"X","ts":1e300,"dur":1,"pid":1,"tid":1,"cat":"map"}]}`},
	{"ts+dur beyond int64 ns", `{"traceEvents": [{"name":"map-task","ph":"X","ts":5e15,"dur":5e15,"pid":1,"tid":1,"cat":"map"}]}`},
	{"no pid", `{"traceEvents": [{"name":"x","ph":"i","ts":1,"tid":1}]}`},
	{"negative pid", `{"traceEvents": [{"name":"map-task","ph":"X","ts":1,"dur":2,"pid":-5,"tid":1,"cat":"map"}]}`},
	{"pid beyond int32", `{"traceEvents": [{"name":"map-task","ph":"X","ts":1,"dur":2,"pid":4294967297,"tid":1,"cat":"map"}]}`},
	{"task beyond int32", `{"traceEvents": [{"name":"map-task","ph":"X","ts":1,"dur":2,"pid":1,"tid":1,"cat":"map","args":{"task":4294967296}}]}`},
	{"no tid", `{"traceEvents": [{"name":"x","ph":"i","ts":1,"pid":0}]}`},
	{"tid 0", `{"traceEvents": [{"name":"map-task","ph":"X","ts":1,"dur":2,"pid":1,"tid":0,"cat":"map"}]}`},
	{"M without args", `{"traceEvents": [{"name":"process_name","ph":"M","pid":0}]}`},
}

// TestParseJSONRejectsBadDocuments pins the reader as the schema gate:
// every row of RejectedDocuments is refused, and a minimal well-formed
// document is accepted.
func TestParseJSONRejectsBadDocuments(t *testing.T) {
	for _, r := range RejectedDocuments {
		if events, err := ParseJSON([]byte(r.Doc)); err == nil {
			t.Errorf("%s: accepted %s as %+v", r.Name, r.Doc, events)
		}
	}
	good := `{"traceEvents": [{"name":"x","ph":"X","ts":1,"dur":0,"pid":0,"tid":1}]}`
	if _, err := ParseJSON([]byte(good)); err != nil {
		t.Errorf("rejected minimal valid doc: %v", err)
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
