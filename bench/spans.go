package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one interval recorded by the benchmark's own wrappers: its name,
// its bounds relative to the log's epoch, the span that caused it (0 for
// none) and the job run it belongs to.
type span struct {
	Parent int32 // 1-based position of the parent in the log
	Run    int32
	Lane   int32 // one track per concurrent actor of a run (task, client)
	Name   string
	Start  time.Duration
	End    time.Duration
}

// spanLog keeps the traced pass's spans in memory until the benchmark ends.
// Wrappers on per-record paths add only the records they sample, so the
// lock is taken a few thousand times per job run.
type spanLog struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	runs  int32
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// now is the time since the log's epoch: one monotonic clock read, half of
// what time.Now costs.
func (l *spanLog) now() time.Duration { return time.Since(l.epoch) }

// newRun returns the identifier shared by all spans of one job run.
func (l *spanLog) newRun() int32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.runs++
	return l.runs
}

func (l *spanLog) add(name string, run, lane, parent int32, start, end time.Duration) int32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Parent: parent, Run: run, Lane: lane, Name: name, Start: start, End: end})
	return int32(len(l.spans))
}

// setBounds moves a span recorded earlier: a span that encloses others is
// reserved when it opens, so that they can name it as their parent, and
// gets its end once that is known.
func (l *spanLog) setBounds(id int32, start, end time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].Start, l.spans[id-1].End = start, end
}

// chromeEvent is one complete ("X") event of the Chrome trace_event format,
// which ui.perfetto.dev and chrome://tracing load. A run is shown as a
// process and a lane as a thread.
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // microseconds
	Dur  float64 `json:"dur"` // microseconds
	Pid  int32   `json:"pid"`
	Tid  int32   `json:"tid"`
	Args struct {
		ID     int32 `json:"id"`
		Parent int32 `json:"parent"`
	} `json:"args"`
}

// perCall are the spans of sampled per-record calls; they are written for
// one run only, or five probed runs of a job fill tens of megabytes.
var perCall = map[string]bool{"map": true, "collect": true, "combine": true, "reduce": true, "output": true}

// write stores the spans as a Chrome trace file, with the per-call spans of
// detailRun and the enclosing spans of every run.
func (l *spanLog) write(path string, detailRun int32) error {
	l.mu.Lock()
	events := make([]chromeEvent, 0, len(l.spans))
	for i, s := range l.spans {
		if perCall[s.Name] && s.Run != detailRun {
			continue
		}
		ev := chromeEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Pid: s.Run, Tid: s.Lane,
		}
		ev.Args.ID, ev.Args.Parent = int32(i+1), s.Parent
		events = append(events, ev)
	}
	l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
