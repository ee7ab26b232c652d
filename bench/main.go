// Command bench is the repository's end-to-end benchmark: five named
// workloads through the real mrtext.Run and mrserve HTTP paths, whole-job
// metrics with tracing off, an oracle over the outputs, and a separate
// traced pass that attributes cost to each layer from outside. README.md in
// this directory defines every workload and metric; BENCHMARK.json at the
// repository root declares them.
//
// With -workload the process measures that one workload and prints, as the
// last line of standard output, one JSON object (correct, attempted, failed,
// metrics). Without it the process re-executes itself once per workload, so
// that peak RSS and CPU time are per workload, and prints a table.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// verifyRounds is how many runs of each workload make one of the two sets
// -verify-repeat compares. The sets are compared by the mean of their runs,
// not the median: a median of three is one of the three, so one run that
// caught a bad spell of the host moves it by the whole difference and a mean
// by a third of it.
const verifyRounds = 3

type options struct {
	contract     *benchmarkFile
	workload     string
	seed         int64
	seconds      int
	trace        int
	scale        float64
	verifyRepeat bool
	jsonPath     string
}

func main() {
	contract, err := readBenchmarkFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	opt := options{contract: contract}
	flag.StringVar(&opt.workload, "workload", "", "run only this workload, in this process (default: all, one child process each)")
	flag.Int64Var(&opt.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&opt.seconds, "seconds", contract.RunSeconds, "length of the measured section of each workload")
	flag.IntVar(&opt.trace, "trace", 0, "1 runs the traced pass and reports the per-layer metrics instead")
	flag.Float64Var(&opt.scale, "scale", 1, "multiplies input sizes (job count for serve_small_jobs)")
	flag.BoolVar(&opt.verifyRepeat, "verify-repeat", false, "run the whole set twice, three interleaved runs each, and fail if the means of any end-to-end metric differ by more than its bound")
	flag.StringVar(&opt.jsonPath, "json", "", "also write the results to this file")
	flag.Parse()
	// -verify-repeat compares the bounded metrics; the traced pass has none.
	if flag.NArg() > 0 || opt.scale <= 0 || opt.seconds < 0 || (opt.trace != 0 && opt.trace != 1) ||
		(opt.verifyRepeat && opt.trace == 1) {
		flag.Usage()
		os.Exit(2)
	}
	code, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func run(opt options) (int, error) {
	if opt.workload != "" && !opt.verifyRepeat {
		return runChild(opt)
	}
	report := map[string]any{"host": hostInfo(opt)}
	code := 0
	if opt.verifyRepeat {
		// The two sets take turns, so that a drift of the host over the
		// minutes this lasts falls on both.
		var sets [2][]resultSet
		for round := 0; round < verifyRounds; round++ {
			for i := range sets {
				rs, err := runSet(opt)
				if err != nil {
					return 1, err
				}
				if !rs.correct() {
					code = 1
				}
				sets[i] = append(sets[i], rs)
			}
		}
		if !compareSets(opt.contract.EndToEnd, sets[0], sets[1]) {
			code = 1
		}
		report["first"], report["second"] = sets[0], sets[1]
	} else {
		rs, err := runSet(opt)
		if err != nil {
			return 1, err
		}
		if !rs.correct() {
			code = 1
		}
		report["results"] = rs
	}
	if opt.jsonPath != "" {
		b, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return 1, err
		}
		if err := os.WriteFile(opt.jsonPath, append(b, '\n'), 0o644); err != nil {
			return 1, err
		}
	}
	return code, nil
}

// result is the last line a child prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// declared are the metrics a run with the given -trace reports.
func (bf *benchmarkFile) declared(trace int) []metricDecl {
	if trace == 1 {
		return bf.PerLayer
	}
	return bf.EndToEnd
}

// runChild measures one workload in this process.
func runChild(opt options) (int, error) {
	w, err := findWorkload(opt.workload)
	if err != nil {
		return 2, err
	}
	budget := time.Duration(opt.seconds) * time.Second
	var o *outcome
	switch {
	case opt.trace == 1:
		o, err = runTraced(w, opt.seed, opt.scale, budget, opt.contract.PerLayer)
	case w.serve:
		o, err = runServe(w, opt.seed, opt.scale, budget)
	default:
		o, err = runBatch(w, opt.seed, opt.scale, budget)
	}
	if err != nil {
		return 1, fmt.Errorf("%s: %w", w.name, err)
	}

	res := result{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	fmt.Printf("workload %s  seed %d  scale %g  GOMAXPROCS %d\n", w.name, opt.seed, opt.scale, runtime.GOMAXPROCS(0))
	for _, d := range opt.contract.declared(opt.trace) {
		v, ok := o.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			o.fail("metric %s was not measured", d.Name)
			res.Failed = o.failed
			continue
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("  %-40s %14.6g %s\n", d.Name, v, d.Unit)
	}
	// Ungated extras, in name order: sample counts, extremes, the tail.
	extras := make([]string, 0, len(o.detail))
	for name := range o.detail {
		extras = append(extras, name)
	}
	sort.Strings(extras)
	for _, name := range extras {
		fmt.Printf("  %-40s %14.6g (not gated)\n", name, o.detail[name])
	}
	errorRate := ratio(float64(o.failed), float64(o.attempted))
	fmt.Printf("  %-40s %14.6g fraction (%d of %d operations)\n", "error_rate", errorRate, o.failed, o.attempted)
	for _, p := range o.problems {
		fmt.Println("  FAILED:", p)
	}
	res.Correct = o.failed == 0
	if opt.jsonPath != "" {
		b, err := json.MarshalIndent(map[string]any{"result": res, "detail": o.detail, "samples": o.samples}, "", "  ")
		if err != nil {
			return 1, err
		}
		if err := os.WriteFile(opt.jsonPath, append(b, '\n'), 0o644); err != nil {
			return 1, err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

// resultSet maps workload name to its child's result.
type resultSet map[string]result

func (rs resultSet) correct() bool {
	for _, r := range rs {
		if !r.Correct {
			return false
		}
	}
	return true
}

// runSet runs each selected workload in a child process of its own and
// prints the table of their metrics.
func runSet(opt options) (resultSet, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	set := resultSet{}
	for _, w := range workloads {
		if opt.workload != "" && opt.workload != w.name {
			continue
		}
		cmd := exec.Command(self,
			"-workload", w.name,
			"-seed", strconv.FormatInt(opt.seed, 10),
			"-seconds", strconv.Itoa(opt.seconds),
			"-trace", strconv.Itoa(opt.trace),
			"-scale", strconv.FormatFloat(opt.scale, 'g', -1, 64))
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		var exit *exec.ExitError
		if runErr != nil && !errors.As(runErr, &exit) {
			return nil, fmt.Errorf("%s: %w", w.name, runErr)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			os.Stdout.Write(out.Bytes())
			return nil, fmt.Errorf("%s: child printed no result (%v)", w.name, runErr)
		}
		// Everything but the machine-readable last line is the child's
		// own table; pass it through.
		fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
		set[w.name] = r
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	return set, nil
}

// metricDecl is one metric as BENCHMARK.json declares it; the per-layer
// metrics have no bound.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is BENCHMARK.json at the repository root. The run length,
// the metric names, units and bounds exist there and nowhere in this package:
// a run reports exactly the metrics the file declares.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// readBenchmarkFile finds BENCHMARK.json in the working directory or its
// parent: the benchmark is started from the repository root or from bench/.
func readBenchmarkFile() (*benchmarkFile, error) {
	var firstErr error
	for _, dir := range []string{".", ".."} {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var bf benchmarkFile
		if err := json.Unmarshal(b, &bf); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &bf, nil
	}
	return nil, firstErr
}

// compareSets prints, for every (metric, workload) pair, the mean of each
// set's runs and their relative difference, and reports whether each stayed
// within the metric's bound.
func compareSets(decls []metricDecl, first, second []resultSet) bool {
	names := make([]string, 0, len(first[0]))
	for n := range first[0] {
		names = append(names, n)
	}
	sort.Strings(names)
	meanOf := func(runs []resultSet, workload, metric string) float64 {
		var total float64
		for _, rs := range runs {
			total += rs[workload].Metrics[metric].Value
		}
		return total / float64(len(runs))
	}
	ok := true
	fmt.Printf("\nmeans of %d runs per set\n%-18s %-24s %14s %14s %8s %6s\n", len(first), "workload", "metric", "first", "second", "diff", "bound")
	for _, wn := range names {
		for _, m := range decls {
			a, b := meanOf(first, wn, m.Name), meanOf(second, wn, m.Name)
			diff := ratio(math.Abs(a-b), math.Min(math.Abs(a), math.Abs(b)))
			verdict := ""
			if diff > m.Bound || a == 0 || b == 0 {
				verdict = "  EXCEEDS BOUND"
				ok = false
			}
			fmt.Printf("%-18s %-24s %14.6g %14.6g %7.2f%% %5.0f%%%s\n", wn, m.Name, a, b, 100*diff, 100*m.Bound, verdict)
		}
	}
	return ok
}

func hostInfo(opt options) map[string]any {
	host, _ := os.Hostname()
	return map[string]any{
		"hostname":   host,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"seed":       opt.seed,
		"scale":      opt.scale,
		"seconds":    opt.seconds,
		"trace":      opt.trace,
	}
}
