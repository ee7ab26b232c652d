package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// This file renders a recorded trace as a terminal Gantt chart for quick
// inspection without leaving the shell: one row per (node, lane, slot)
// track, spans painted as kind-coded glyphs over a common time axis.
// Longer spans are painted first so nested detail (a sort inside a spill
// inside a map task) overwrites its parent where it occurred — the same
// visual nesting Perfetto draws vertically.

// GanttMarked renders events as a fixed-width terminal timeline with the
// marked spans — the critical path the analyzer extracted — repainted as
// '#', so the chain of spans the job's wall time actually waited on reads
// straight off the chart; with no marks it is the plain timeline. Marked
// events are matched by identity (kind, lane, coordinates, start,
// duration); marks that match no event are ignored. width is the number
// of columns for the time axis (minimum 20; 0 uses 100). The chart is
// built in memory and written once; the returned error is the writer's.
func GanttMarked(w io.Writer, events, marked []Event, width int) error {
	var b strings.Builder
	ganttTo(&b, events, marked, width)
	_, err := io.WriteString(w, b.String())
	return err
}

// spanKey identifies one span for critical-path marking.
type spanKey struct {
	ts, dur    int64
	kind       Kind
	lane       Lane
	node, slot int32
}

func keyOf(e Event) spanKey {
	return spanKey{ts: e.TS, dur: e.Dur, kind: e.Kind, lane: e.Lane, node: e.Node, slot: e.Slot}
}

func ganttTo(w *strings.Builder, events, marked []Event, width int) {
	// The paint character of each span kind.
	glyphs := [numKinds]byte{
		KindJob:          '=',
		KindMapTask:      'm',
		KindSpill:        'S',
		KindSort:         'o',
		KindCombine:      'c',
		KindShuffleFetch: 'f',
		KindShuffleCopy:  'C',
		KindReduceTask:   'r',
		KindWaitMap:      '.',
		KindWaitSupport:  '.',
		KindWaitFabric:   'w',
		KindWaitRetry:    'y',
		KindWaitQueue:    'q',
	}
	if width <= 0 {
		width = 100
	}
	if width < 20 {
		width = 20
	}
	var minTS, maxTS int64 = -1, 0
	type trackKey struct {
		node int32
		lane Lane
		slot int32
	}
	tracks := make(map[trackKey][]Event)
	for _, e := range events {
		if e.Kind.Instant() {
			continue
		}
		if minTS < 0 || e.TS < minTS {
			minTS = e.TS
		}
		if end := e.TS + e.Dur; end > maxTS {
			maxTS = end
		}
		k := trackKey{e.Node, e.Lane, e.Slot}
		tracks[k] = append(tracks[k], e)
	}
	if len(tracks) == 0 {
		fmt.Fprintln(w, "trace: no spans recorded")
		return
	}
	span := maxTS - minTS
	if span <= 0 {
		span = 1
	}
	marks := make(map[spanKey]bool, len(marked))
	for _, e := range marked {
		marks[keyOf(e)] = true
	}

	keys := make([]trackKey, 0, len(tracks))
	for k := range tracks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.node != b.node {
			return a.node < b.node
		}
		if a.lane != b.lane {
			return a.lane < b.lane
		}
		return a.slot < b.slot
	})

	total := time.Duration(span)
	fmt.Fprintf(w, "timeline: %s across %d tracks (1 col = %s)\n",
		total.Round(time.Microsecond), len(tracks), (total / time.Duration(width)).Round(time.Microsecond))
	for _, k := range keys {
		evs := tracks[k]
		// Longest spans first so shorter (nested) spans repaint over them;
		// marked (critical-path) spans last so the '#' overlay survives.
		sort.SliceStable(evs, func(i, j int) bool {
			mi, mj := marks[keyOf(evs[i])], marks[keyOf(evs[j])]
			if mi != mj {
				return mj
			}
			return evs[i].Dur > evs[j].Dur
		})
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		for _, e := range evs {
			lo := int((e.TS - minTS) * int64(width) / span)
			hi := int((e.TS + e.Dur - minTS) * int64(width) / span)
			if hi <= lo {
				hi = lo + 1
			}
			if hi > width {
				hi = width
			}
			g := glyphs[e.Kind]
			if g == 0 {
				g = '?'
			}
			if marks[keyOf(e)] {
				g = '#'
			}
			for i := lo; i < hi && i < width; i++ {
				row[i] = g
			}
		}
		label := fmt.Sprintf("n%d %s/%d", k.node, k.lane, k.slot)
		if k.node < 0 {
			label = fmt.Sprintf("cluster %s", k.lane)
		}
		fmt.Fprintf(w, "%-16s |%s|\n", label, row)
	}
	legend := "legend: = job  m map-task  S spill  o sort  c combine  f shuffle-fetch  C shuffle-copy  r reduce-task  . wait  w fabric-wait  y retry-wait  q queue-wait"
	if len(marks) > 0 {
		legend += "  # critical path"
	}
	fmt.Fprintln(w, legend)
}
