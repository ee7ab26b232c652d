// Command mrtracecheck validates Chrome/Perfetto trace files written by
// mrrun -trace or mrbench -trace and prints a short summary per file. It
// exits non-zero if any file fails validation, which makes it usable as a
// CI gate on trace artifacts. With -report it additionally parses each
// trace, reconstructs the job's critical path, and prints the blame
// report — so a recorded artifact can be analyzed offline, without the
// process that produced it.
//
// Usage:
//
//	mrtracecheck [-report] <trace.json> [<trace.json>...]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"mrtext/internal/trace"
	"mrtext/internal/trace/critpath"
)

// summary counts the event phases of one trace document. The field set
// mirrors the subset of the trace_event format the exporter emits.
type summary struct {
	TraceEvents []struct {
		Ph   string  `json:"ph"`
		Name string  `json:"name"`
		Dur  float64 `json:"dur"`
	} `json:"traceEvents"`
}

func check(path string, report bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := trace.Validate(data); err != nil {
		return err
	}
	var s summary
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	var spans, instants, meta int
	var busyUS float64
	for _, ev := range s.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
			busyUS += ev.Dur
		case "i":
			instants++
		case "M":
			meta++
		}
	}
	fmt.Printf("%s: ok — %d spans (%.1f ms busy), %d instants, %d metadata rows\n",
		path, spans, busyUS/1000, instants, meta)
	if !report {
		return nil
	}
	events, err := trace.ParseJSON(data)
	if err != nil {
		return err
	}
	rep, err := critpath.Analyze(events)
	if err != nil {
		return err
	}
	return rep.WriteText(os.Stdout)
}

func main() {
	report := flag.Bool("report", false, "reconstruct the critical path of each trace and print the blame report")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: mrtracecheck [-report] <trace.json>...")
		os.Exit(2)
	}
	failed := false
	for _, path := range flag.Args() {
		if err := check(path, *report); err != nil {
			fmt.Fprintf(os.Stderr, "mrtracecheck: %s: %v\n", path, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
