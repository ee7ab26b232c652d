package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// This file is the one reader of a trace_event JSON document: it parses
// what WriteJSON writes back into Events, so analysis (the critpath
// package, mrtracecheck -report) runs on recorded artifacts as well as on
// live tracers, and it is the schema gate CI runs on every trace
// artifact. The mapping is the exporter's inverse: span names resolve to
// kinds and categories to lanes by name — not ordinal — so a trace
// written before a kind was added (or after one was removed) still
// parses; well-formed entries with an unknown name or category are
// skipped rather than rejected.

// kindByName resolves an exported span name to its Kind.
func kindByName(name string) (Kind, bool) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// laneByName resolves an exported category to its Lane.
func laneByName(name string) (Lane, bool) {
	for l := Lane(0); l < numLanes; l++ {
		if l.String() == name {
			return l, true
		}
	}
	return 0, false
}

// jsonIn is one trace_event entry as ParseJSON reads it. Pointer fields
// tell a missing value from a zero one; the int32 fields make the decoder
// refuse a pid or task that would wrap to another node or task.
type jsonIn struct {
	Name string   `json:"name"`
	Ph   string   `json:"ph"`
	TS   *float64 `json:"ts"`  // microseconds
	Dur  *float64 `json:"dur"` // microseconds
	Pid  *int32   `json:"pid"`
	Tid  *int     `json:"tid"`
	Cat  string   `json:"cat"`
	Args *struct {
		Task    int32 `json:"task"`
		Records int64 `json:"records"`
		Bytes   int64 `json:"bytes"`
		Attempt int64 `json:"attempt"`
		Arg     int64 `json:"arg"`
	} `json:"args"`
}

// ParseJSON decodes a trace_event document produced by WriteJSON into
// events in timestamp order. It refuses a document without events and
// any entry the exporter could not have written: no name or pid, a phase
// other than X, i or M, a complete event without a non-negative dur, a
// span or instant without a non-negative ts or with a tid below 1, a
// negative pid, a pid or task beyond int32, a ts or ts+dur beyond int64
// nanoseconds, and a metadata row without args. Metadata rows, and spans and instants with an
// unknown name or category, are checked and then skipped. Timestamps and
// durations convert from exported microseconds back to nanoseconds.
func ParseJSON(data []byte) ([]Event, error) {
	var doc struct {
		TraceEvents []jsonIn `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("trace: not a trace_event document: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return nil, errors.New("trace: missing or empty traceEvents array")
	}
	var events []Event
	for i := range doc.TraceEvents {
		je := &doc.TraceEvents[i]
		e, keep, err := je.decode()
		if err != nil {
			return nil, fmt.Errorf("trace: event %d (%q): %w", i, je.Name, err)
		}
		if keep {
			events = append(events, e)
		}
	}
	sortEvents(events)
	return events, nil
}

// decode checks one entry and converts it to an Event. keep is false for
// metadata rows and for entries whose name or category this build does
// not know.
func (je *jsonIn) decode() (e Event, keep bool, err error) {
	switch {
	case je.Name == "":
		return e, false, errors.New("missing name")
	case je.Pid == nil:
		return e, false, errors.New("missing pid")
	}
	switch je.Ph {
	case "M":
		if je.Args == nil {
			return e, false, errors.New("metadata event needs args")
		}
		return e, false, nil
	case "X":
		if je.Dur == nil || *je.Dur < 0 {
			return e, false, errors.New("complete event needs dur >= 0")
		}
	case "i":
	case "":
		return e, false, errors.New("missing ph")
	default:
		return e, false, fmt.Errorf("unsupported phase %q", je.Ph)
	}
	switch {
	case je.TS == nil || *je.TS < 0:
		return e, false, errors.New("needs ts >= 0")
	case je.Tid == nil || *je.Tid < 1:
		return e, false, errors.New("needs tid >= 1")
	case *je.Pid < 0:
		return e, false, errors.New("needs pid >= 0")
	}
	ts, tsOK := nanos(*je.TS)
	var dur int64
	durOK := true
	if je.Ph == "X" {
		dur, durOK = nanos(*je.Dur)
	}
	if !tsOK || !durOK || ts > math.MaxInt64-dur {
		return e, false, errors.New("ts+dur overflows int64 nanoseconds")
	}

	kind, kindOK := kindByName(je.Name)
	lane, laneOK := laneByName(je.Cat)
	if !kindOK || !laneOK {
		return e, false, nil
	}
	if je.Args != nil {
		e.Task = je.Args.Task
		if je.Ph == "i" {
			e.Arg = je.Args.Arg
		} else {
			e.Records, e.Bytes, e.Arg = je.Args.Records, je.Args.Bytes, je.Args.Attempt
		}
	}
	e.TS, e.Dur, e.Kind, e.Lane = ts, dur, kind, lane
	e.Node = *je.Pid - 1
	e.Slot = int32((*je.Tid - 1) % maxSlots)
	return e, true, nil
}

// nanos converts non-negative exported microseconds to nanoseconds,
// reporting false when the result does not fit in an int64.
func nanos(us float64) (int64, bool) {
	ns := math.Round(us * 1e3)
	if ns >= 1<<63 {
		return 0, false
	}
	return int64(ns), true
}
