// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark runs the corresponding workload end to end on
// an unthrottled in-process cluster so ns/op reflects algorithmic cost, and
// reports the paper's headline quantity as a custom metric where one exists
// (e.g. %-of-baseline for Table III rows, records-removed for Fig. 7).
//
// The full paper-shaped reproduction — throttled disks, gigabit fabric,
// larger inputs — is produced by `go run ./cmd/mrbench <experiment>`; these
// benchmarks are the `go test -bench` entry points that exercise exactly
// the same code paths per table/figure.
package mrtext_test

import (
	"fmt"
	"math/rand"
	"testing"

	"mrtext"
	"mrtext/internal/apps"
	"mrtext/internal/cluster"
	"mrtext/internal/core/spillmatch"
	"mrtext/internal/core/spillmodel"
	"mrtext/internal/core/topk"
	"mrtext/internal/core/zipfest"
	"mrtext/internal/metrics"
	"mrtext/internal/mr"
	"mrtext/internal/textgen"
)

const benchCorpusBytes = 1 << 20

// benchCluster builds an unthrottled 2-node cluster preloaded with the
// benchmark datasets.
func benchCluster(b *testing.B) *mrtext.Cluster {
	b.Helper()
	c, err := mrtext.NewCluster(mrtext.FastCluster(2))
	if err != nil {
		b.Fatal(err)
	}
	if err := mrtext.GenerateCorpus(c, "corpus.txt", mrtext.CorpusConfig{
		Vocabulary: 20_000, Alpha: 1, WordsPerLine: 10, Seed: 1,
	}, benchCorpusBytes); err != nil {
		b.Fatal(err)
	}
	logCfg := mrtext.LogConfig{URLs: 5_000, Alpha: 0.8, Seed: 2}
	if err := mrtext.GenerateUserVisits(c, "visits.log", logCfg, benchCorpusBytes); err != nil {
		b.Fatal(err)
	}
	if err := mrtext.GenerateRankings(c, "rankings.tbl", logCfg); err != nil {
		b.Fatal(err)
	}
	if err := mrtext.GenerateWebGraph(c, "crawl.tsv", mrtext.GraphConfig{
		Pages: 5_000, Alpha: 1, MeanOutDegree: 6, Seed: 3,
	}); err != nil {
		b.Fatal(err)
	}
	return c
}

// benchInputs names the benchmark datasets benchCluster generates.
var benchInputs = map[apps.Input]string{
	apps.Corpus:   "corpus.txt",
	apps.Visits:   "visits.log",
	apps.Rankings: "rankings.tbl",
	apps.Graph:    "crawl.tsv",
}

// benchJob constructs the job for one (app, variant) cell of Table III/IV
// from the application catalogue.
func benchJob(b *testing.B, app, variant string) *mrtext.Job {
	a, err := apps.Lookup(app)
	if err != nil {
		b.Fatal(err)
	}
	var inputs []string
	for _, in := range a.Inputs {
		inputs = append(inputs, benchInputs[in])
	}
	job := a.Job(inputs, apps.Params{Pages: 5_000, POSIterations: 2})
	job.SpillBufferBytes = 512 << 10
	if variant == "FreqOpt" || variant == "Combined" {
		job.FreqBuf = a.Class.FreqBuf()
	}
	job.SpillMatcher = variant == "SpillOpt" || variant == "Combined"
	return job
}

// runTimingBench measures one (app, variant) cell end to end.
func runTimingBench(b *testing.B, c *mrtext.Cluster, app, variant string) {
	b.Helper()
	var bytesOut int64
	for i := 0; i < b.N; i++ {
		res, err := mrtext.Run(c, benchJob(b, app, variant))
		if err != nil {
			b.Fatal(err)
		}
		bytesOut = res.Agg.Counters[metrics.CtrMapOutputBytes]
	}
	b.SetBytes(benchCorpusBytes)
	b.ReportMetric(float64(bytesOut), "intermediate-bytes")
}

// BenchmarkTable3 covers every cell of Table III: the six applications
// under the four configurations on the (unthrottled) local-cluster shape.
func BenchmarkTable3(b *testing.B) {
	appsList := []string{"WordCount", "InvertedIndex", "WordPOSTag", "AccessLogSum", "AccessLogJoin", "PageRank"}
	variants := []string{"Baseline", "FreqOpt", "SpillOpt", "Combined"}
	for _, app := range appsList {
		for _, variant := range variants {
			b.Run(app+"/"+variant, func(b *testing.B) {
				c := benchCluster(b)
				b.ResetTimer()
				runTimingBench(b, c, app, variant)
			})
		}
	}
}

// BenchmarkTable4 covers Table IV: the EC2-scale 20-node cluster for the
// applications the paper reports there.
func BenchmarkTable4(b *testing.B) {
	for _, app := range []string{"WordCount", "InvertedIndex", "PageRank"} {
		for _, variant := range []string{"Baseline", "Combined"} {
			b.Run(app+"/"+variant, func(b *testing.B) {
				c, err := mrtext.NewCluster(mrtext.FastCluster(20))
				if err != nil {
					b.Fatal(err)
				}
				if err := mrtext.GenerateCorpus(c, "corpus.txt", mrtext.CorpusConfig{
					Vocabulary: 20_000, Alpha: 1, WordsPerLine: 10, Seed: 1,
				}, benchCorpusBytes); err != nil {
					b.Fatal(err)
				}
				if err := mrtext.GenerateWebGraph(c, "crawl.tsv", mrtext.GraphConfig{
					Pages: 5_000, Alpha: 1, MeanOutDegree: 6, Seed: 3,
				}); err != nil {
					b.Fatal(err)
				}
				if err := mrtext.GenerateUserVisits(c, "visits.log", mrtext.LogConfig{URLs: 5000, Alpha: 0.8, Seed: 2}, 64<<10); err != nil {
					b.Fatal(err)
				}
				if err := mrtext.GenerateRankings(c, "rankings.tbl", mrtext.LogConfig{URLs: 5000, Seed: 2}); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				runTimingBench(b, c, app, variant)
			})
		}
	}
}

// BenchmarkFig2Breakdown measures the instrumented baseline run that
// produces Fig. 2's serialized cost breakdown (and Table II's idle
// percentages), including the cost of the instrumentation itself.
func BenchmarkFig2Breakdown(b *testing.B) {
	c := benchCluster(b)
	b.ResetTimer()
	var userFrac float64
	for i := 0; i < b.N; i++ {
		res, err := mrtext.Run(c, benchJob(b, "WordCount", "Baseline"))
		if err != nil {
			b.Fatal(err)
		}
		agg := res.Agg
		userFrac = float64(agg.UserWork()) / float64(agg.TotalWork())
	}
	b.ReportMetric(100*userFrac, "user-code-%")
}

// BenchmarkFig3Corpus measures corpus generation plus exact word counting —
// the pipeline that produces the Fig. 3 rank-frequency curve.
func BenchmarkFig3Corpus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exact := topk.NewExact()
		sampler, err := zipfest.NewSampler(20_000, 1.0)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		for j := 0; j < 200_000; j++ {
			exact.Offer(textgen.WordForRank(sampler.Rank(rng.Float64())))
		}
		if _, err := zipfest.EstimateAlpha(exact.RankedCounts()); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(200_000)
}

// BenchmarkFig7Predictors measures the three Fig. 7 predictors on the same
// Zipfian key stream: the paper's Space-Saving profiler, the Ideal oracle
// and the LRU buffer.
func BenchmarkFig7Predictors(b *testing.B) {
	sampler, err := zipfest.NewSampler(20_000, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	const n = 200_000
	stream := make([]string, n)
	for i := range stream {
		stream[i] = textgen.WordForRank(sampler.Rank(rng.Float64()))
	}
	b.Run("SpaceSaving", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := topk.NewStreamSummary(4 * 3000)
			for _, k := range stream {
				s.Offer(k)
			}
			_ = s.Top(3000)
		}
		b.SetBytes(n)
	})
	b.Run("Ideal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := topk.NewExact()
			for _, k := range stream {
				e.Offer(k)
			}
			_ = e.Top(3000)
		}
		b.SetBytes(n)
	})
	b.Run("LRU", func(b *testing.B) {
		var removed uint64
		for i := 0; i < b.N; i++ {
			l := topk.NewLRU(3000)
			for _, k := range stream {
				l.Touch(k)
			}
			removed = l.Hits()
		}
		b.SetBytes(n)
		b.ReportMetric(100*float64(removed)/float64(n), "removed-%")
	})
}

// BenchmarkFig8FreqBuf measures the full frequency-buffered WordCount run
// against its baseline — the Fig. 8 comparison — reporting the share of
// intermediate records the frequent-key table absorbed.
func BenchmarkFig8FreqBuf(b *testing.B) {
	for _, variant := range []string{"Baseline", "FreqOpt"} {
		b.Run(variant, func(b *testing.B) {
			c := benchCluster(b)
			b.ResetTimer()
			var hits, total int64
			for i := 0; i < b.N; i++ {
				res, err := mrtext.Run(c, benchJob(b, "WordCount", variant))
				if err != nil {
					b.Fatal(err)
				}
				hits = res.Agg.Counters[metrics.CtrFreqHits]
				total = res.Agg.Counters[metrics.CtrMapOutputRecords]
			}
			if total > 0 {
				b.ReportMetric(100*float64(hits)/float64(total), "absorbed-%")
			}
		})
	}
}

// BenchmarkFig9SpillControllers measures the map phase under the static
// controller vs the spill-matcher — the mechanism behind Fig. 9 — and
// reports the slower-thread idle share.
func BenchmarkFig9SpillControllers(b *testing.B) {
	for _, variant := range []string{"Baseline", "SpillOpt"} {
		b.Run(variant, func(b *testing.B) {
			c := benchCluster(b)
			b.ResetTimer()
			var idle float64
			for i := 0; i < b.N; i++ {
				res, err := mrtext.Run(c, benchJob(b, "WordCount", variant))
				if err != nil {
					b.Fatal(err)
				}
				idle = res.MapIdleFraction() + res.SupportIdleFraction()
			}
			b.ReportMetric(100*idle, "thread-idle-%")
		})
	}
}

// BenchmarkFig10SynText measures representative corners of the Fig. 10
// grid: CPU-light/storage-light (WordCount-like), CPU-heavy, and
// storage-heavy (InvertedIndex-like), baseline vs combined.
func BenchmarkFig10SynText(b *testing.B) {
	corners := []struct {
		name    string
		cpu     int
		storage float64
	}{
		{"light", 0, 0},
		{"cpu-heavy", 32, 0},
		{"storage-heavy", 0, 1},
	}
	for _, corner := range corners {
		for _, variant := range []string{"Baseline", "Combined"} {
			b.Run(fmt.Sprintf("%s/%s", corner.name, variant), func(b *testing.B) {
				c := benchCluster(b)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					job := mrtext.SynText(mrtext.SynTextConfig{CPUFactor: corner.cpu, Storage: corner.storage}, "corpus.txt")
					job.SpillBufferBytes = 512 << 10
					if variant == "Combined" {
						job.FreqBuf = mrtext.FreqBufText()
						job.SpillMatcher = true
					}
					if _, err := mrtext.Run(c, job); err != nil {
						b.Fatal(err)
					}
				}
				b.SetBytes(benchCorpusBytes)
			})
		}
	}
}

// BenchmarkSpillModel measures the §IV-C analytic simulator, which the
// property tests sweep to verify eq. 1.
func BenchmarkSpillModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := spillmodel.Simulate(spillmodel.Params{
			BufferBytes: 1 << 20, InputBytes: 256 << 20,
			ProduceRate: 150e6, ConsumeRate: 100e6,
		}, spillmatch.NewMatcher())
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReferenceExecutor measures the sequential ground-truth executor
// used by the correctness tests.
func BenchmarkReferenceExecutor(b *testing.B) {
	c, err := cluster.New(cluster.Fast(1))
	if err != nil {
		b.Fatal(err)
	}
	w, err := c.FS.Create("corpus.txt", 0)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := textgen.Corpus(w, textgen.CorpusConfig{Vocabulary: 5000, Alpha: 1, WordsPerLine: 10, Seed: 1}, 256<<10); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mr.RunReference(c, apps.WordCount("corpus.txt")); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(256 << 10)
}
