package trace_test

import (
	"bytes"
	"testing"

	"mrtext/internal/trace"
	"mrtext/internal/trace/critpath"
)

// FuzzParseJSON feeds arbitrary bytes to trace.ParseJSON and, wherever it
// accepts a document, runs the critical-path analyzer on the events, as
// mrtracecheck -report does with a recorded artifact. Neither may panic:
// a malformed or hostile document is an error or a report, never a crash.
// The seed corpus is a WriteJSON round-trip of a small job's spans and
// one document for each rule the reader enforces.
func FuzzParseJSON(f *testing.F) {
	var doc bytes.Buffer
	if err := trace.WriteJSON(&doc, []trace.Event{
		{TS: 0, Dur: 5_000_000, Kind: trace.KindJob, Lane: trace.LaneScheduler, Node: -1, Task: -1},
		{TS: 1_000, Dur: 2_000_000, Records: 120, Bytes: 4096, Kind: trace.KindMapTask, Lane: trace.LaneMap, Node: 0, Task: 3, Slot: 1},
		{TS: 5_500, Dur: 100_000, Kind: trace.KindSpill, Lane: trace.LaneSupport, Node: 0, Task: 3, Slot: 1},
		{TS: 2_100_000, Dur: 2_500_000, Kind: trace.KindReduceTask, Lane: trace.LaneReduce, Node: 1, Task: 0, Slot: 0},
		{TS: 2_200_000, Dur: 12_345, Kind: trace.KindWaitFabric, Lane: trace.LaneReduce, Node: 1, Task: 0, Slot: 0},
		{TS: 10_000, Arg: 42, Kind: trace.KindWorkSteal, Lane: trace.LaneScheduler, Node: 2, Task: 7},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(doc.Bytes())
	f.Add([]byte(`{"traceEvents":[]}`))
	f.Add([]byte(`{"traceEvents":[{"name":"map-task","ph":"X","ts":1e300,"dur":-1e300,"pid":-5,"tid":0,"cat":"map"}]}`))
	for _, r := range trace.RejectedDocuments {
		f.Add([]byte(r.Doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := trace.ParseJSON(data)
		if err != nil {
			return
		}
		//mrlint:ignore droppederr a rejected trace is an allowed outcome; the fuzz checks only that nothing panics
		_, _ = critpath.Analyze(events)
	})
}
