package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// This file exports a recorded trace in the Chrome trace_event JSON
// format, which ui.perfetto.dev and chrome://tracing load directly. The
// mapping makes the paper's figures visible in the UI:
//
//   - one process (pid) per cluster node (pid 0 is the cluster itself,
//     carrying the job span and scheduler instants),
//   - one thread (tid) per goroutine lane and execution slot, named
//     "map slot 0", "support slot 0", "reduce slot 1", ... so Fig. 9's
//     map-vs-support overlap is two adjacent swimlanes,
//   - spans as "X" (complete) events with microsecond timestamps and
//     task/record/byte counters in args,
//   - instants as thread-scoped "i" events.

// maxSlots bounds slots per lane in the tid encoding; lanes are spaced
// this far apart so (lane, slot) pairs never collide.
const maxSlots = 64

// tidFor encodes a (lane, slot) pair as a stable thread id (1-based:
// tid 0 is reserved for process metadata rows).
func tidFor(lane Lane, slot int32) int {
	s := int(slot)
	if s < 0 {
		s = 0
	}
	if s >= maxSlots {
		s = maxSlots - 1
	}
	return int(lane)*maxSlots + s + 1
}

// jsonEvent is one trace_event entry. Args is loosely typed because data
// events carry integer counters while metadata events carry name strings.
type jsonEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // always present: a 0-dur complete event is still valid
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// pidName renders the process name for a pid.
func pidName(pid int) string {
	if pid == 0 {
		return "cluster"
	}
	return fmt.Sprintf("node %d", pid-1)
}

// WriteJSON writes events as a trace_event JSON document.
func WriteJSON(w io.Writer, events []Event) error {
	type track struct {
		pid, tid int
		lane     Lane
		slot     int32
	}
	seen := make(map[track]bool)
	data := make([]jsonEvent, 0, len(events)+64)

	for _, e := range events {
		pid := int(e.Node) + 1
		if pid < 0 {
			pid = 0
		}
		tid := tidFor(e.Lane, e.Slot)
		seen[track{pid, tid, e.Lane, e.Slot}] = true

		je := jsonEvent{
			Name: e.Kind.String(),
			TS:   float64(e.TS) / 1e3,
			Pid:  pid,
			Tid:  tid,
			Cat:  e.Lane.String(),
			Args: map[string]any{"task": int64(e.Task)},
		}
		if e.Kind.Instant() {
			je.Ph = "i"
			je.S = "t"
			je.Args["arg"] = e.Arg
		} else {
			je.Ph = "X"
			je.Dur = float64(e.Dur) / 1e3
			if e.Records != 0 {
				je.Args["records"] = e.Records
			}
			if e.Bytes != 0 {
				je.Args["bytes"] = e.Bytes
			}
			if e.Arg != 0 {
				je.Args["attempt"] = e.Arg
			}
		}
		data = append(data, je)
	}

	// Metadata rows: name processes and threads, and pin the lane order so
	// a node reads top-to-bottom as map / support / reduce / scheduler.
	tracks := make([]track, 0, len(seen))
	pids := make(map[int]bool)
	for tr := range seen {
		tracks = append(tracks, tr)
		pids[tr.pid] = true
	}
	sort.Slice(tracks, func(i, j int) bool {
		if tracks[i].pid != tracks[j].pid {
			return tracks[i].pid < tracks[j].pid
		}
		return tracks[i].tid < tracks[j].tid
	})
	sortedPids := make([]int, 0, len(pids))
	for pid := range pids {
		sortedPids = append(sortedPids, pid)
	}
	sort.Ints(sortedPids)
	for _, pid := range sortedPids {
		data = append(data, jsonEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": pidName(pid)}})
	}
	for _, tr := range tracks {
		data = append(data, jsonEvent{Name: "thread_name", Ph: "M", Pid: tr.pid, Tid: tr.tid,
			Args: map[string]any{"name": fmt.Sprintf("%s slot %d", tr.lane, tr.slot)}})
		data = append(data, jsonEvent{Name: "thread_sort_index", Ph: "M", Pid: tr.pid, Tid: tr.tid,
			Args: map[string]any{"sort_index": tr.tid}})
	}

	doc := struct {
		TraceEvents []jsonEvent `json:"traceEvents"`
	}{TraceEvents: data}
	return json.NewEncoder(w).Encode(doc)
}
