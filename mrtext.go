// Package mrtext is the public façade of the library: a MapReduce runtime
// with the two text-centric optimizations of Hsiao, Cafarella and
// Narayanasamy, "Reducing MapReduce Abstraction Costs for Text-Centric
// Applications" (ICPP 2014) — frequency-buffering and the spill-matcher —
// running on a simulated multi-node cluster in a single process.
//
// A minimal program:
//
//	c, _ := mrtext.NewCluster(mrtext.LocalSmallCluster())
//	_ = mrtext.GenerateCorpus(c, "corpus.txt", mrtext.DefaultCorpus(), 16<<20)
//	job := mrtext.WordCount("corpus.txt")
//	job.FreqBuf = mrtext.FreqBufText() // enable frequency-buffering
//	job.SpillMatcher = true            // enable the spill-matcher
//	res, _ := mrtext.Run(c, job)
//	fmt.Println(res.Wall, res.Agg.Breakdown())
//
// The underlying packages live in internal/; this package re-exports the
// complete user-facing surface: cluster construction, dataset generation,
// the six paper applications plus SynText, job execution, the sequential
// reference executor, and the instrumentation types experiments consume.
package mrtext

import (
	"context"
	"fmt"
	"io"

	"mrtext/internal/apps"
	"mrtext/internal/chaos"
	"mrtext/internal/cluster"
	"mrtext/internal/metrics"
	"mrtext/internal/mr"
	"mrtext/internal/textgen"
	"mrtext/internal/trace"
	"mrtext/internal/trace/critpath"
)

// Core job-authoring types, re-exported from the runtime.
type (
	// Job specifies a MapReduce job; see mr.Job for field documentation.
	Job = mr.Job
	// Result summarizes a completed job.
	Result = mr.Result
	// TaskReport carries one task's instrumentation.
	TaskReport = mr.TaskReport
	// Mapper is the user map() contract.
	Mapper = mr.Mapper
	// MapperFunc adapts a function to Mapper.
	MapperFunc = mr.MapperFunc
	// Reducer is the user reduce() contract.
	Reducer = mr.Reducer
	// ReducerFunc adapts a function to Reducer.
	ReducerFunc = mr.ReducerFunc
	// Collector receives emitted key/value pairs.
	Collector = mr.Collector
	// ValueIter streams one reduce group's values.
	ValueIter = mr.ValueIter
	// CombineFunc is the user combine() contract.
	CombineFunc = mr.CombineFunc
	// FreqBufConfig configures frequency-buffering on a Job.
	FreqBufConfig = mr.FreqBufConfig
	// Cluster is a running simulated cluster.
	Cluster = cluster.Cluster
	// ClusterConfig sizes a cluster.
	ClusterConfig = cluster.Config
	// ChaosConfig configures deterministic fault injection; assign one to
	// ClusterConfig.Chaos to exercise the runtime's fault tolerance (see
	// internal/chaos for the site and scheduling model).
	ChaosConfig = chaos.Config
	// Snapshot is aggregated instrumentation (operation and wait times,
	// counters, latency histograms); a job's is its Result.Agg.
	Snapshot = metrics.Snapshot
	// Op is one fine-grained pipeline operation (Table I taxonomy).
	Op = metrics.Op
	// CorpusConfig parameterizes the Zipfian corpus generator.
	CorpusConfig = textgen.CorpusConfig
	// LogConfig parameterizes the access-log generators.
	LogConfig = textgen.LogConfig
	// GraphConfig parameterizes the web-graph generator.
	GraphConfig = textgen.GraphConfig
	// SynTextConfig parameterizes the SynText benchmark.
	SynTextConfig = apps.SynTextConfig
	// Tracer records a job's span timeline for Perfetto export; assign one
	// to Job.Trace (see internal/trace for the event model).
	Tracer = trace.Tracer
	// TraceReport is a critical-path blame report derived from a recorded
	// trace (see internal/trace/critpath for the analysis model).
	TraceReport = critpath.Report
)

// NewCluster builds a simulated cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// LocalSmallCluster mirrors the paper's local testbed (6 nodes, 12 mappers
// + 12 reducers, throttled disks, gigabit fabric).
func LocalSmallCluster() ClusterConfig { return cluster.LocalSmall() }

// EC2Cluster mirrors the paper's 20-node EC2 testbed.
func EC2Cluster() ClusterConfig { return cluster.EC2Large() }

// FastCluster is an unthrottled cluster for tests and demos.
func FastCluster(nodes int) ClusterConfig { return cluster.Fast(nodes) }

// Run executes a job on the cluster.
func Run(c *Cluster, job *Job) (*Result, error) { return mr.Run(c, job) }

// RunContext executes a job on the cluster under ctx. Canceling ctx
// cancels the job: in-flight task attempts unwind at their next record
// boundary, attempt temp files are swept, and committed intermediates are
// removed before RunContext returns the cancellation error.
func RunContext(ctx context.Context, c *Cluster, job *Job) (*Result, error) {
	return mr.RunContext(ctx, c, job)
}

// RunReference executes a job sequentially with no optimizations and no
// parallelism: the semantic ground truth for output comparison.
func RunReference(c *Cluster, job *Job) (map[int][]byte, error) { return mr.RunReference(c, job) }

// NewTracer returns a span recorder of the given total event capacity
// (<= 0 uses the default); assign it to Job.Trace before Run.
func NewTracer(capacity int) *Tracer { return trace.New(capacity) }

// WriteTrace writes the tracer's recorded events as Chrome trace_event
// JSON, loadable at ui.perfetto.dev or chrome://tracing.
func WriteTrace(w io.Writer, t *Tracer) error { return trace.WriteJSON(w, t.Events()) }

// AnalyzeTrace reconstructs the critical path from the tracer's recorded
// events and returns the blame report: per-phase wall time attributed to
// named causes, plus per-node utilization timelines.
func AnalyzeTrace(t *Tracer) (*TraceReport, error) {
	return critpath.Analyze(t.Events())
}

// WriteGanttMarked renders the tracer's events as a terminal Gantt chart
// with the report's critical-path spans highlighted.
func WriteGanttMarked(w io.Writer, t *Tracer, r *TraceReport, width int) error {
	return trace.GanttMarked(w, t.Events(), r.PathEvents(), width)
}

// WriteMetricsDump writes the snapshot, its latency histograms digested
// into quantile summaries, as indented JSON (the mrrun -metrics-json
// output).
func WriteMetricsDump(w io.Writer, s Snapshot) error { return metrics.WriteDump(w, s) }

// ReadOutput reads one reduce partition's output file of a completed job.
func ReadOutput(c *Cluster, res *Result, part int) ([]byte, error) {
	if part < 0 || part >= len(res.Outputs) {
		return nil, fmt.Errorf("mrtext: job %s has no partition %d", res.Job, part)
	}
	return c.FS.ReadFile(res.Outputs[part])
}

// SumInt64 is the int64-sum combiner (values are zig-zag varints). A job
// whose Combine is this exact value is summed in place, with no combine()
// call; a func that wraps it takes the generic combiner path.
var SumInt64 = mr.SumInt64

// ---------- Applications ----------

// WordCount counts word occurrences over text corpora.
func WordCount(inputs ...string) *Job { return apps.WordCount(inputs...) }

// InvertedIndex builds per-word location lists over text corpora.
func InvertedIndex(inputs ...string) *Job { return apps.InvertedIndex(inputs...) }

// WordPOSTag computes per-word part-of-speech statistics; iterations is
// the tagger's CPU-intensity knob (0 = paper-like default).
func WordPOSTag(iterations int, inputs ...string) *Job {
	return apps.WordPOSTag(iterations, inputs...)
}

// AccessLogSum aggregates ad revenue per URL over a UserVisits log.
func AccessLogSum(visits string) *Job { return apps.AccessLogSum(visits) }

// AccessLogJoin joins a UserVisits log with a Rankings table on URL.
func AccessLogJoin(visits, rankings string) *Job { return apps.AccessLogJoin(visits, rankings) }

// PageRank performs one PageRank iteration over a web crawl of the given
// page count.
func PageRank(graph string, pages int64) *Job { return apps.PageRank(graph, pages) }

// SynText builds the parameterizable synthetic text benchmark of §V-D.
func SynText(cfg SynTextConfig, inputs ...string) *Job { return apps.SynText(cfg, inputs...) }

// FreqBufText returns the paper's frequency-buffering setting for text
// applications (k=3000, s=0.01, 30% of the buffer).
func FreqBufText() *FreqBufConfig { return apps.Text.FreqBuf() }

// FreqBufLog returns the paper's setting for log applications
// (k=10000, s=0.1).
func FreqBufLog() *FreqBufConfig { return apps.Log.FreqBuf() }

// ---------- Dataset generation ----------

// DefaultCorpus returns the laptop-scale corpus configuration.
func DefaultCorpus() CorpusConfig { return textgen.DefaultCorpus() }

// DefaultLog returns the laptop-scale access-log configuration.
func DefaultLog() LogConfig { return textgen.DefaultLog() }

// DefaultGraph returns the laptop-scale web-graph configuration.
func DefaultGraph() GraphConfig { return textgen.DefaultGraph() }

// GenerateCorpus writes a Zipfian text corpus of ~targetBytes into the
// cluster's DFS under the given name.
func GenerateCorpus(c *Cluster, name string, cfg CorpusConfig, targetBytes int64) error {
	return c.FS.WriteWith(name, func(w io.Writer) error {
		return apps.Corpus.Generate(w, apps.Data{Corpus: cfg, CorpusBytes: targetBytes})
	})
}

// GenerateUserVisits writes a UserVisits log of ~targetBytes into the DFS.
func GenerateUserVisits(c *Cluster, name string, cfg LogConfig, targetBytes int64) error {
	return c.FS.WriteWith(name, func(w io.Writer) error {
		return apps.Visits.Generate(w, apps.Data{Log: cfg, VisitBytes: targetBytes})
	})
}

// GenerateRankings writes the Rankings table (one row per URL) into the DFS.
func GenerateRankings(c *Cluster, name string, cfg LogConfig) error {
	return c.FS.WriteWith(name, func(w io.Writer) error {
		return apps.Rankings.Generate(w, apps.Data{Log: cfg})
	})
}

// GenerateWebGraph writes the synthetic crawl into the DFS.
func GenerateWebGraph(c *Cluster, name string, cfg GraphConfig) error {
	return c.FS.WriteWith(name, func(w io.Writer) error {
		return apps.Graph.Generate(w, apps.Data{Graph: cfg})
	})
}
