package main

import (
	"math"
	"regexp"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFile checks BENCHMARK.json against the limits of the
// benchmark contract and against the workloads the harness implements.
func TestBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bf.RunSeconds)
	}
	if n := len(bf.Workloads); n != len(workloads) || n < 2 || n > 8 {
		t.Fatalf("%d workloads declared, %d implemented (limit 2..8)", n, len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	for i, w := range bf.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, harness %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics (limit 1..16)", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics (limit 1..128)", n)
	}
	setup := false
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(append([]metricDecl(nil), bf.EndToEnd...), bf.PerLayer...) {
		unique(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q or direction %q is malformed", m.Name, m.Unit, m.Better)
		}
	}
}

// TestSmoke runs every workload at 1/32 of its size with one repetition and
// requires exactly the declared metrics to be reported, finite and (end to
// end) non-zero, with no failed operation. With -short it leaves out the
// reference executor and the traced pass and takes under five seconds.
func TestSmoke(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	setupReps, minReps, minTracedPairs, serveWarmupJobs, checkInputBytes = 1, 1, 1, 1, 128<<10
	gaugeRounds = 1
	if testing.Short() {
		checkInputBytes = 0
	}
	traceDir = t.TempDir()
	const scale = 1.0 / 32
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			run := runBatch
			if w.serve {
				run = runServe
			}
			check := func(o *outcome, err error, decls []metricDecl, nonZero bool) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				if o.failed != 0 || o.attempted == 0 {
					t.Errorf("%d of %d operations failed: %v", o.failed, o.attempted, o.problems)
				}
				for _, d := range decls {
					v, ok := o.metrics[d.Name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) || (nonZero && v == 0) {
						t.Errorf("%s = %v (reported %v)", d.Name, v, ok)
					}
				}
				if len(o.metrics) != len(decls) {
					t.Errorf("%d metrics reported, %d declared", len(o.metrics), len(decls))
				}
			}
			o, err := run(w, 1, scale, time.Millisecond)
			check(o, err, bf.EndToEnd, true)
			if testing.Short() {
				return
			}
			o, err = runTraced(w, 1, scale, time.Millisecond, bf.PerLayer)
			check(o, err, bf.PerLayer, false)
		})
	}
}
