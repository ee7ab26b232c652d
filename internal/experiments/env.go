// Package experiments regenerates every table and figure of the paper's
// evaluation (§II profiling + §V experiments) on the simulated cluster.
// Each experiment is a function from an Env (scale, cluster shape, output
// writer) to a printed table plus structured rows; cmd/mrbench exposes
// them by id and bench_test.go wraps them as benchmarks.
//
// Scale note: the paper runs 8–145 GB inputs on physical clusters; the
// default Env scales everything down (~16 MiB corpus) so a full table
// regenerates in minutes on one machine. Because both optimizations act on
// per-task pipeline behaviour and intermediate-data volume, the *shape* of
// every result — which configuration wins, roughly by what factor, where
// the crossovers fall — is preserved; absolute seconds are not comparable.
package experiments

import (
	"fmt"
	"io"
	"time"

	"mrtext/internal/apps"
	"mrtext/internal/cluster"
	"mrtext/internal/mr"
	"mrtext/internal/textgen"
	"mrtext/internal/trace"
)

// Env parameterizes an experiment run.
type Env struct {
	// Scale multiplies every dataset size (1.0 = defaults below).
	Scale float64
	// Cluster is the cluster shape; zero value means the paper's local
	// cluster.
	Cluster cluster.Config
	// POSIterations is WordPOSTag's CPU-intensity knob, scaled down from
	// the paper's OpenNLP cost so the experiment completes in minutes.
	POSIterations int
	// SpillBufferBytes is the map-side buffer M for all jobs.
	SpillBufferBytes int64
	// Seed offsets all generator seeds.
	Seed int64
	// Out receives the printed tables (defaults to io.Discard).
	Out io.Writer
	// Trace, when non-nil, records every job the experiments run.
	Trace *trace.Tracer
}

// Default dataset sizes at Scale = 1.
const (
	defCorpusBytes = 16 << 20
	defVisitBytes  = 24 << 20
	defGraphPages  = 40_000
	defVocabulary  = 120_000
	defURLs        = 40_000
)

// DefaultEnv returns the standard experiment environment: the paper's
// local-cluster shape at reproduction scale.
func DefaultEnv() Env {
	return Env{Seed: 1}.withDefaults()
}

func (e Env) withDefaults() Env {
	if e.Scale <= 0 {
		e.Scale = 1
	}
	if e.Cluster.Nodes == 0 {
		e.Cluster = cluster.LocalSmall()
	}
	if e.POSIterations <= 0 {
		e.POSIterations = 8
	}
	if e.SpillBufferBytes <= 0 {
		e.SpillBufferBytes = 2 << 20
	}
	if e.Out == nil {
		e.Out = io.Discard
	}
	return e
}

func (e Env) printf(format string, args ...interface{}) {
	//mrlint:ignore droppederr best-effort progress output; e.Out is a fire-and-forget log sink
	fmt.Fprintf(e.Out, format, args...)
}

func (e Env) corpusBytes() int64 { return int64(float64(defCorpusBytes) * e.Scale) }
func (e Env) visitBytes() int64  { return int64(float64(defVisitBytes) * e.Scale) }
func (e Env) graphPages() int64  { return int64(float64(defGraphPages) * e.Scale) }

// AppID identifies one benchmark application by its catalogue display
// name, which the tables print.
type AppID string

// The six applications of §II-B, and SynText (§V-D).
const (
	WordCount     AppID = "WordCount"
	InvertedIndex AppID = "InvertedIndex"
	WordPOSTag    AppID = "WordPOSTag"
	AccessLogSum  AppID = "AccessLogSum"
	AccessLogJoin AppID = "AccessLogJoin"
	PageRank      AppID = "PageRank"
	SynText       AppID = "SynText"
)

// AllApps lists the applications in the paper's presentation order.
var AllApps = []AppID{WordCount, InvertedIndex, WordPOSTag, AccessLogSum, AccessLogJoin, PageRank}

// Variant is one of the four test scenarios of §V.
type Variant string

// The four configurations of Table III.
const (
	Baseline Variant = "Baseline"
	FreqOpt  Variant = "FreqOpt"
	SpillOpt Variant = "SpillOpt"
	Combined Variant = "Combined"
)

// AllVariants in the paper's row order.
var AllVariants = []Variant{Baseline, FreqOpt, SpillOpt, Combined}

// inputNames names the experiments' datasets on a cluster.
var inputNames = map[apps.Input]string{
	apps.Corpus:   "corpus.txt",
	apps.Visits:   "uservisits.log",
	apps.Rankings: "rankings.tbl",
	apps.Graph:    "crawl.tsv",
}

// data sizes and seeds the environment's datasets.
func (e Env) data() apps.Data {
	return apps.Data{
		Corpus:      textgen.CorpusConfig{Vocabulary: defVocabulary, Alpha: 1.0, WordsPerLine: 10, Seed: e.Seed + 10},
		CorpusBytes: e.corpusBytes(),
		Log:         textgen.LogConfig{URLs: defURLs, Alpha: 0.8, Seed: e.Seed + 20},
		VisitBytes:  e.visitBytes(),
		Graph:       textgen.GraphConfig{Pages: e.graphPages(), Alpha: 1.0, MeanOutDegree: 8, Seed: e.Seed + 30},
	}
}

// setup builds a cluster from the environment and generates into its DFS
// every dataset the applications read.
func setup(env Env, list ...AppID) (*cluster.Cluster, error) {
	c, err := cluster.New(env.Cluster)
	if err != nil {
		return nil, err
	}
	data, done := env.data(), map[apps.Input]bool{}
	for _, app := range list {
		a, err := apps.Lookup(string(app))
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		for _, in := range a.Inputs {
			if done[in] {
				continue
			}
			done[in] = true
			if err := c.FS.WriteWith(inputNames[in], func(w io.Writer) error { return in.Generate(w, data) }); err != nil {
				return nil, fmt.Errorf("experiments: generating %s: %w", inputNames[in], err)
			}
		}
	}
	return c, nil
}

// makeJob builds app's job under variant v over setup's datasets.
func makeJob(env Env, app AppID, v Variant) (*mr.Job, error) {
	return makeJobWith(env, app, v, apps.Params{Pages: env.graphPages(), POSIterations: env.POSIterations})
}

// makeJobWith is makeJob with the application parameters given. The
// variant flips the optimization switches, frequency-buffering at the
// paper's setting for the app's class (§V-B2).
func makeJobWith(env Env, app AppID, v Variant, p apps.Params) (*mr.Job, error) {
	a, err := apps.Lookup(string(app))
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	inputs := make([]string, len(a.Inputs))
	for i, in := range a.Inputs {
		inputs[i] = inputNames[in]
	}
	job := a.Job(inputs, p)
	job.Name = fmt.Sprintf("%s-%s", job.Name, v)
	job.SpillBufferBytes = env.SpillBufferBytes
	if v == FreqOpt || v == Combined {
		job.FreqBuf = a.Class.FreqBuf()
	}
	job.SpillMatcher = v == SpillOpt || v == Combined
	return job, nil
}

// run runs one job, on the environment's tracer, and returns its result.
func (e Env) run(c *cluster.Cluster, job *mr.Job) (*mr.Result, error) {
	job.Trace = e.Trace
	return mr.Run(c, job)
}

// runCell builds app's job under variant v and runs it on c.
func (e Env) runCell(c *cluster.Cluster, app AppID, v Variant) (*mr.Result, error) {
	job, err := makeJob(e, app, v)
	if err != nil {
		return nil, err
	}
	res, err := e.run(c, job)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", app, v, err)
	}
	return res, nil
}

// seconds renders a duration with 2 decimals.
func seconds(d time.Duration) string {
	return fmt.Sprintf("%.2fs", d.Seconds())
}

// pct renders new/old as the paper does ("78.4%"), guarding zero.
func pct(new, old time.Duration) string {
	if old == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(new)/float64(old))
}
