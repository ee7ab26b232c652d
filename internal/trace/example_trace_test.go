package trace

import (
	"encoding/json"
	"os"
	"testing"
)

// examplePath is the committed example trace: a small SynText run
// recorded by `mrrun -trace` (see examples/traces/README in the repo
// docs). The test pins the properties the example exists to demonstrate
// in ui.perfetto.dev: it parses, map and support work live on
// distinct threads, and sort/spill spans on the support lane genuinely
// overlap map-task spans.
const examplePath = "../../examples/traces/syntext-small.trace.json"

type exampleEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func TestExampleTraceLoadsAndShowsLanes(t *testing.T) {
	data, err := os.ReadFile(examplePath)
	if err != nil {
		t.Fatalf("reading committed example trace: %v", err)
	}
	if _, err := ParseJSON(data); err != nil {
		t.Fatalf("committed example trace does not parse: %v", err)
	}

	var doc struct {
		TraceEvents []exampleEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}

	// Lane → set of (pid, tid) tracks, and the spans we need for the
	// overlap assertion.
	type track struct{ pid, tid int }
	laneTracks := make(map[string]map[track]bool)
	var mapTasks, supportWork []exampleEvent
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if laneTracks[ev.Cat] == nil {
			laneTracks[ev.Cat] = make(map[track]bool)
		}
		laneTracks[ev.Cat][track{ev.PID, ev.TID}] = true
		switch {
		case ev.Name == "map-task":
			mapTasks = append(mapTasks, ev)
		case ev.Cat == "support" && (ev.Name == "sort" || ev.Name == "spill"):
			supportWork = append(supportWork, ev)
		}
	}

	if len(mapTasks) == 0 || len(supportWork) == 0 {
		t.Fatalf("example trace missing content: %d map-tasks, %d support sort/spill spans",
			len(mapTasks), len(supportWork))
	}

	// Map and support lanes must occupy disjoint thread ids on every
	// node — they are the two swimlanes of Fig. 9.
	for tr := range laneTracks["map"] {
		if laneTracks["support"][tr] {
			t.Errorf("map and support lanes share track pid=%d tid=%d", tr.pid, tr.tid)
		}
	}
	if len(laneTracks["map"]) == 0 || len(laneTracks["support"]) == 0 {
		t.Fatalf("lanes missing: map tracks %d, support tracks %d",
			len(laneTracks["map"]), len(laneTracks["support"]))
	}

	// At least one support-lane sort/spill span must overlap a map-task
	// span on the same node: the concurrency the trace exists to show.
	overlaps := 0
	for _, s := range supportWork {
		for _, m := range mapTasks {
			if s.PID != m.PID {
				continue
			}
			if s.TS < m.TS+m.Dur && s.TS+s.Dur > m.TS {
				overlaps++
				break
			}
		}
	}
	if overlaps == 0 {
		t.Error("no support-lane sort/spill span overlaps a map-task span")
	}
}
