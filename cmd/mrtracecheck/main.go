// Command mrtracecheck checks Chrome/Perfetto trace files written by
// mrrun -trace or mrbench -trace and prints a short summary per file. It
// reads each file once, through trace.ParseJSON, and exits non-zero if
// any file fails to parse, which makes it usable as a CI gate on trace
// artifacts. With -report it also reconstructs each job's critical path
// from the parsed events and prints the blame report — so a recorded
// artifact can be analyzed offline, without the process that produced it.
//
// Usage:
//
//	mrtracecheck [-report] <trace.json> [<trace.json>...]
package main

import (
	"flag"
	"fmt"
	"os"

	"mrtext/internal/trace"
	"mrtext/internal/trace/critpath"
)

func check(path string, report bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	events, err := trace.ParseJSON(data)
	if err != nil {
		return err
	}
	// The job span and the task spans inside it: the task-span total
	// against the job's wall shows how many slots the job kept busy.
	var spans, instants int
	var job, tasks int64
	for _, e := range events {
		switch {
		case e.Kind.Instant():
			instants++
			continue
		case e.Kind == trace.KindJob:
			job += e.Dur
		case e.Kind == trace.KindMapTask || e.Kind == trace.KindReduceTask:
			tasks += e.Dur
		}
		spans++
	}
	fmt.Printf("%s: ok — %d spans, %d instants; job span %.1f ms, map+reduce task spans %.1f ms\n",
		path, spans, instants, float64(job)/1e6, float64(tasks)/1e6)
	if !report {
		return nil
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
