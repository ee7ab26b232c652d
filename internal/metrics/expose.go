package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file renders the metrics layer for consumers outside the process:
// the Prometheus text exposition format served at /metrics by the debug
// server (scrapable beside the expvar JSON), and the machine-readable
// registry dump behind mrrun -metrics-json. Both views carry the same
// three layers — operation times, wait times, counters — plus the
// histogram summaries, so a scrape and a post-run dump agree on names.

// promName rewrites a dotted registry name into a Prometheus metric name
// fragment: dots and dashes become underscores.
func promName(name string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '.', '-':
			return '_'
		}
		return r
	}, name)
}

// WritePrometheus renders the live aggregate and every registered
// histogram in the Prometheus text exposition format. Operation and wait
// times are cumulative nanosecond counters; histograms render with
// cumulative le buckets in nanoseconds. Live aggregation must be enabled
// (EnableLive) for the op/wait/counter series to be non-zero.
func WritePrometheus(w io.Writer) error {
	var b strings.Builder
	s := LiveSnapshot()

	fmt.Fprintf(&b, "# HELP mrtext_op_ns_total cumulative operation time by Table I op, nanoseconds\n")
	fmt.Fprintf(&b, "# TYPE mrtext_op_ns_total counter\n")
	for op := Op(0); op < NumOps; op++ {
		fmt.Fprintf(&b, "mrtext_op_ns_total{op=%q} %d\n", op.String(), int64(s.Ops[op]))
	}

	fmt.Fprintf(&b, "# HELP mrtext_wait_ns_total cumulative goroutine idle time, nanoseconds\n")
	fmt.Fprintf(&b, "# TYPE mrtext_wait_ns_total counter\n")
	fmt.Fprintf(&b, "mrtext_wait_ns_total{goroutine=\"map\"} %d\n", int64(s.WaitMap))
	fmt.Fprintf(&b, "mrtext_wait_ns_total{goroutine=\"support\"} %d\n", int64(s.WaitSupport))

	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "# HELP mrtext_counter_total cumulative named counters\n")
	fmt.Fprintf(&b, "# TYPE mrtext_counter_total counter\n")
	for _, name := range names {
		fmt.Fprintf(&b, "mrtext_counter_total{name=%q} %d\n", name, s.Counters[name])
	}

	for _, hs := range HistogramSnapshots() {
		writePromHistogram(&b, hs)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writePromHistogram renders one histogram as a Prometheus histogram
// family: cumulative le buckets at the non-empty bucket upper bounds,
// the mandatory +Inf bucket, _sum and _count.
func writePromHistogram(b *strings.Builder, s HistogramSnapshot) {
	metric := "mrtext_" + promName(s.Name)
	fmt.Fprintf(b, "# HELP %s %s distribution\n", metric, s.Name)
	fmt.Fprintf(b, "# TYPE %s histogram\n", metric)
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		cum += c
		fmt.Fprintf(b, "%s_bucket{le=\"%d\"} %d\n", metric, bucketHigh(i), cum)
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", metric, s.Count)
	fmt.Fprintf(b, "%s_sum %d\n", metric, s.Sum)
	fmt.Fprintf(b, "%s_count %d\n", metric, s.Count)
}

// Dump is the scripted-consumption view of a metrics snapshot: the
// snapshot flattened to JSON-friendly maps, plus a summary of every
// registered histogram. mrrun -metrics-json writes one for a finished job,
// and pprofserve's "mrtext.metrics" expvar renders the live aggregate as one.
type Dump struct {
	OpsNS         map[string]int64   `json:"ops_ns"`
	WaitMapNS     int64              `json:"wait_map_ns"`
	WaitSupportNS int64              `json:"wait_support_ns"`
	Counters      map[string]int64   `json:"counters"`
	Histograms    []HistogramSummary `json:"histograms"`
}

// NewDump builds the dump for one snapshot, attaching summaries of every
// registered histogram.
func NewDump(s Snapshot) Dump {
	d := Dump{
		OpsNS:         make(map[string]int64, NumOps),
		WaitMapNS:     int64(s.WaitMap),
		WaitSupportNS: int64(s.WaitSupport),
		Counters:      make(map[string]int64, len(s.Counters)),
	}
	for op := Op(0); op < NumOps; op++ {
		if s.Ops[op] != 0 {
			d.OpsNS[op.String()] = int64(s.Ops[op])
		}
	}
	for k, v := range s.Counters {
		d.Counters[k] = v
	}
	for _, hs := range HistogramSnapshots() {
		d.Histograms = append(d.Histograms, hs.Summary())
	}
	return d
}

// WriteDump writes NewDump(s) as indented JSON.
func WriteDump(w io.Writer, s Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(NewDump(s))
}
